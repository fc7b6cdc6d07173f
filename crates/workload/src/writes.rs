//! The synthetic write model of §4.2.
//!
//! Both web-write studies the paper cites (Bestavros; Gwertzman & Seltzer)
//! found that few files change rapidly and that globally popular files
//! change *less* than others. The paper's model, reproduced here:
//!
//! * the **10% most-read** files write at λ = 0.005/day;
//! * of the remaining files, **3% of all files** are *very mutable*
//!   (λ = 0.2/day), **10% of all files** are *mutable* (λ = 0.05/day), and
//!   the remaining **77%** write at λ = 0.02/day;
//! * write arrivals are Poisson.
//!
//! The *bursty* variant (Figure 9) additionally co-writes `k ~ Exp(mean
//! 10)` other objects from the same volume at the instant of every write.

use crate::dist::{exponential, poisson};
use crate::{TraceEvent, Universe};
use rand::Rng;
use vl_types::{ObjectId, Timestamp};

/// An object's write-rate class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutabilityClass {
    /// Top-decile by reads: λ = 0.005 writes/day.
    Popular,
    /// 3% of all files: λ = 0.2 writes/day (>20%/day chance of change).
    VeryMutable,
    /// 10% of all files: λ = 0.05 writes/day (>5%/day chance of change).
    Mutable,
    /// The remaining 77%: λ = 0.02 writes/day.
    Slow,
}

impl MutabilityClass {
    /// Expected writes per day for this class under the default config.
    pub fn default_rate(self) -> f64 {
        match self {
            MutabilityClass::Popular => 0.005,
            MutabilityClass::VeryMutable => 0.2,
            MutabilityClass::Mutable => 0.05,
            MutabilityClass::Slow => 0.02,
        }
    }
}

/// Tunable parameters of the write model. [`WriteModelConfig::paper`]
/// gives the values from §4.2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WriteModelConfig {
    /// Fraction of files (by read rank) classed [`MutabilityClass::Popular`].
    pub popular_fraction: f64,
    /// Fraction of *all* files classed [`MutabilityClass::VeryMutable`].
    pub very_mutable_fraction: f64,
    /// Fraction of *all* files classed [`MutabilityClass::Mutable`].
    pub mutable_fraction: f64,
    /// Writes/day for each class, in the order popular, very-mutable,
    /// mutable, slow.
    pub rates_per_day: [f64; 4],
    /// If set, every write additionally modifies `k ~ Exp(mean)` objects
    /// from the same volume at the same instant (Figure 9's workload).
    pub burst_mean: Option<f64>,
}

impl WriteModelConfig {
    /// The paper's §4.2 parameters, non-bursty.
    pub fn paper() -> WriteModelConfig {
        WriteModelConfig {
            popular_fraction: 0.10,
            very_mutable_fraction: 0.03,
            mutable_fraction: 0.10,
            rates_per_day: [0.005, 0.2, 0.05, 0.02],
            burst_mean: None,
        }
    }

    /// The paper's Figure 9 "bursty write" variant (mean burst 10).
    pub fn paper_bursty() -> WriteModelConfig {
        WriteModelConfig {
            burst_mean: Some(10.0),
            ..WriteModelConfig::paper()
        }
    }

    /// Rate for `class` under this config.
    pub fn rate(&self, class: MutabilityClass) -> f64 {
        match class {
            MutabilityClass::Popular => self.rates_per_day[0],
            MutabilityClass::VeryMutable => self.rates_per_day[1],
            MutabilityClass::Mutable => self.rates_per_day[2],
            MutabilityClass::Slow => self.rates_per_day[3],
        }
    }
}

impl Default for WriteModelConfig {
    fn default() -> Self {
        WriteModelConfig::paper()
    }
}

/// Per-object mutability assignment plus write-event generation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WriteModel {
    classes: Vec<MutabilityClass>,
    config: WriteModelConfig,
}

impl WriteModel {
    /// Assigns classes given objects ranked most-read-first.
    ///
    /// `rank_order` must contain every object exactly once. The top
    /// `popular_fraction` become [`MutabilityClass::Popular`]; the rest
    /// are randomly partitioned into the other classes.
    ///
    /// # Panics
    ///
    /// Panics if `rank_order` has duplicate or out-of-range objects.
    pub fn assign<R: Rng + ?Sized>(
        rank_order: &[ObjectId],
        config: WriteModelConfig,
        rng: &mut R,
    ) -> WriteModel {
        let n = rank_order.len();
        let mut classes = vec![None; n];
        let n_popular = (n as f64 * config.popular_fraction).round() as usize;
        let n_very = (n as f64 * config.very_mutable_fraction).round() as usize;
        let n_mutable = (n as f64 * config.mutable_fraction).round() as usize;

        for &obj in rank_order.iter().take(n_popular) {
            let slot = &mut classes[obj.raw() as usize];
            assert!(slot.is_none(), "duplicate object {obj} in rank order");
            *slot = Some(MutabilityClass::Popular);
        }
        // Randomly shuffle the remainder, then slice into classes.
        let mut rest: Vec<ObjectId> = rank_order.iter().skip(n_popular).copied().collect();
        for i in (1..rest.len()).rev() {
            rest.swap(i, rng.gen_range(0..=i));
        }
        for (i, &obj) in rest.iter().enumerate() {
            let class = if i < n_very {
                MutabilityClass::VeryMutable
            } else if i < n_very + n_mutable {
                MutabilityClass::Mutable
            } else {
                MutabilityClass::Slow
            };
            let slot = &mut classes[obj.raw() as usize];
            assert!(slot.is_none(), "duplicate object {obj} in rank order");
            *slot = Some(class);
        }
        WriteModel {
            classes: classes
                .into_iter()
                .map(|c| c.expect("rank order must cover every object"))
                .collect(),
            config,
        }
    }

    /// The class assigned to `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn class_of(&self, object: ObjectId) -> MutabilityClass {
        self.classes[object.raw() as usize]
    }

    /// Number of objects in `class`.
    pub fn count_in(&self, class: MutabilityClass) -> usize {
        self.classes.iter().filter(|&&c| c == class).count()
    }

    /// Generates Poisson write events for every object over `days`,
    /// uniformly spread across the span. With `burst_mean` set, each base
    /// write co-writes `k` volume-mates at the same instant.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        universe: &Universe,
        days: f64,
        rng: &mut R,
    ) -> Vec<TraceEvent> {
        let span_ms = (days * 86_400_000.0) as u64;
        let mut events = Vec::new();
        for meta in universe.objects() {
            let rate = self.config.rate(self.class_of(meta.id));
            let count = poisson(rng, rate * days);
            for _ in 0..count {
                let at = Timestamp::from_millis(rng.gen_range(0..span_ms.max(1)));
                events.push(TraceEvent::write(at, meta.id));
                if let Some(mean) = self.config.burst_mean {
                    let k = exponential(rng, mean).round() as usize;
                    let mates = &universe.volume(meta.volume).objects;
                    if mates.len() > 1 {
                        for _ in 0..k {
                            let other = mates[rng.gen_range(0..mates.len())];
                            if other != meta.id {
                                events.push(TraceEvent::write(at, other));
                            }
                        }
                    }
                }
            }
        }
        events
    }

    /// Expected total writes over `days` (mean of the Poisson mixture),
    /// excluding burst co-writes. Used by calibration tests.
    pub fn expected_writes(&self, days: f64) -> f64 {
        self.classes
            .iter()
            .map(|&c| self.config.rate(c) * days)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vl_types::ServerId;

    fn universe(objects: usize) -> Universe {
        let mut b = UniverseBuilder::new();
        let v = b.add_volume(ServerId(0));
        for _ in 0..objects {
            b.add_object(v, 100);
        }
        b.build()
    }

    fn rank_order(n: usize) -> Vec<ObjectId> {
        (0..n as u64).map(ObjectId).collect()
    }

    #[test]
    fn class_fractions_match_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 1000;
        let m = WriteModel::assign(&rank_order(n), WriteModelConfig::paper(), &mut rng);
        assert_eq!(m.count_in(MutabilityClass::Popular), 100);
        assert_eq!(m.count_in(MutabilityClass::VeryMutable), 30);
        assert_eq!(m.count_in(MutabilityClass::Mutable), 100);
        assert_eq!(m.count_in(MutabilityClass::Slow), 770);
    }

    #[test]
    fn top_ranked_objects_are_popular_class() {
        let mut rng = StdRng::seed_from_u64(2);
        let order = rank_order(100);
        let m = WriteModel::assign(&order, WriteModelConfig::paper(), &mut rng);
        for &obj in order.iter().take(10) {
            assert_eq!(m.class_of(obj), MutabilityClass::Popular);
        }
    }

    #[test]
    fn generated_write_count_tracks_expectation() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 2000;
        let u = universe(n);
        let m = WriteModel::assign(&rank_order(n), WriteModelConfig::paper(), &mut rng);
        let days = 100.0;
        let events = m.generate(&u, days, &mut rng);
        let expected = m.expected_writes(days); // ≈ 2000 × 0.0269 × 100 = 5380
        let got = events.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "got {got}, expected ≈ {expected}"
        );
        // All inside the span.
        let span = Timestamp::from_millis((days * 86_400_000.0) as u64);
        assert!(events.iter().all(|e| e.at() < span));
    }

    #[test]
    fn bursty_model_amplifies_writes() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 500;
        let u = universe(n);
        let base = WriteModel::assign(&rank_order(n), WriteModelConfig::paper(), &mut rng);
        let mut rng2 = StdRng::seed_from_u64(5);
        let bursty =
            WriteModel::assign(&rank_order(n), WriteModelConfig::paper_bursty(), &mut rng2);
        let days = 200.0;
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let base_events = base.generate(&u, days, &mut rng_a);
        let bursty_events = bursty.generate(&u, days, &mut rng_b);
        // Mean burst of 10 ⇒ roughly an order of magnitude more writes.
        assert!(
            bursty_events.len() as f64 > base_events.len() as f64 * 4.0,
            "bursty {} vs base {}",
            bursty_events.len(),
            base_events.len()
        );
    }

    #[test]
    fn burst_co_writes_share_the_instant_and_volume() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50;
        let u = universe(n);
        let m = WriteModel::assign(&rank_order(n), WriteModelConfig::paper_bursty(), &mut rng);
        let events = m.generate(&u, 365.0, &mut rng);
        // Single volume ⇒ trivially same volume; check instants cluster.
        use std::collections::HashMap;
        let mut by_instant: HashMap<u64, usize> = HashMap::new();
        for e in &events {
            *by_instant.entry(e.at().as_millis()).or_insert(0) += 1;
        }
        assert!(
            by_instant.values().any(|&c| c > 1),
            "expected at least one co-write burst"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_rank_entries_panic() {
        let mut rng = StdRng::seed_from_u64(8);
        let order = vec![ObjectId(0), ObjectId(0)];
        WriteModel::assign(&order, WriteModelConfig::paper(), &mut rng);
    }

    #[test]
    fn default_rates_match_paper() {
        assert_eq!(MutabilityClass::Popular.default_rate(), 0.005);
        assert_eq!(MutabilityClass::VeryMutable.default_rate(), 0.2);
        assert_eq!(MutabilityClass::Mutable.default_rate(), 0.05);
        assert_eq!(MutabilityClass::Slow.default_rate(), 0.02);
    }
}

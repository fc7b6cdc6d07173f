//! The calibrated synthetic trace generator.
//!
//! Substitutes for the Boston University Mosaic traces (§4.2), matching
//! the aggregate properties the paper's conclusions rest on — see
//! `DESIGN.md` §4 for the substitution argument. Generation is a pure
//! function of [`WorkloadConfig`] (including its seed).

use crate::dist::{exponential, log_normal, Zipf};
use crate::writes::{WriteModel, WriteModelConfig};
use crate::{Trace, TraceEvent, Universe, UniverseBuilder};
use rand::Rng;
use std::collections::HashMap;
use vl_types::{ClientId, ObjectId, ServerId, Timestamp, VolumeId};

/// Scale presets for experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadPreset {
    /// Tiny: seconds to simulate; used by unit/integration tests.
    Smoke,
    /// Mid-size: the figure binaries' default (~100K reads).
    Medium,
    /// Full paper scale: 33 clients, 1000 servers, 68,665 files,
    /// ~1.03M reads over 120 days.
    Paper,
}

/// Complete, serializable generator configuration.
///
/// # Examples
///
/// ```
/// use vl_workload::{TraceGenerator, WorkloadConfig};
///
/// let mut cfg = WorkloadConfig::smoke();
/// cfg.seed = 7;
/// let a = TraceGenerator::new(cfg.clone()).generate();
/// let b = TraceGenerator::new(cfg).generate();
/// assert_eq!(a.events(), b.events()); // same seed ⇒ same trace
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Number of cache clients (the BU trace had 33 workstations).
    pub clients: u32,
    /// Number of servers.
    pub servers: u32,
    /// Volumes hosted per server. The paper uses 1 (volume = server,
    /// §4.2) and leaves "more sophisticated grouping as future work";
    /// values > 1 shard each server's objects across finer volumes,
    /// which trades weaker renewal amortization for smaller
    /// per-volume blast radius.
    pub volumes_per_server: u32,
    /// Total distinct objects.
    pub objects: u64,
    /// Target number of read events (approximate; generation stops when
    /// each client exhausts its quota or the span ends).
    pub target_reads: u64,
    /// Simulated span in days.
    pub days: f64,
    /// Zipf exponent for server (volume) popularity.
    pub server_zipf_theta: f64,
    /// Zipf exponent for object popularity within a volume (0.986 is the
    /// classic web-trace value from Cunha et al.).
    pub object_zipf_theta: f64,
    /// Mean objects read per session burst (spatial locality in a volume).
    pub mean_burst_len: f64,
    /// Mean seconds between reads inside a burst.
    pub mean_intra_burst_gap_secs: f64,
    /// Probability that a session *revisits* a previously read page —
    /// replaying an earlier burst's exact object set, as a browser
    /// reload refetches a page and its embedded objects. Web client
    /// traces are dominated by such revisits; they are the re-reads that
    /// long object leases amortize.
    pub revisit_prob: f64,
    /// Median object size in bytes (log-normal).
    pub size_median_bytes: f64,
    /// Log-space sigma for object sizes.
    pub size_sigma: f64,
    /// The write model parameters.
    pub writes: WriteModelConfig,
}

impl WorkloadConfig {
    /// Returns the configuration for `preset`.
    pub fn preset(preset: WorkloadPreset) -> WorkloadConfig {
        match preset {
            // Preset scales keep the paper's write:read ratio (~20%:
            // 209K writes per 1.03M reads) so the Figure 5 crossovers
            // land where the paper's do.
            WorkloadPreset::Smoke => WorkloadConfig {
                seed: 42,
                clients: 5,
                servers: 20,
                objects: 600,
                target_reads: 8_000,
                days: 10.0,
                ..WorkloadConfig::preset(WorkloadPreset::Paper)
            },
            WorkloadPreset::Medium => WorkloadConfig {
                seed: 42,
                clients: 33,
                servers: 200,
                objects: 12_000,
                target_reads: 120_000,
                days: 90.0,
                ..WorkloadConfig::preset(WorkloadPreset::Paper)
            },
            WorkloadPreset::Paper => WorkloadConfig {
                seed: 42,
                clients: 33,
                servers: 1000,
                objects: 68_665,
                target_reads: 1_034_077,
                days: 120.0,
                volumes_per_server: 1,
                server_zipf_theta: 0.9,
                object_zipf_theta: 0.986,
                mean_burst_len: 8.0,
                // Browsers fetch a page and its embedded objects within
                // seconds — the spatial locality volume leases exploit.
                mean_intra_burst_gap_secs: 3.0,
                revisit_prob: 0.6,
                size_median_bytes: 3_000.0,
                size_sigma: 1.3,
                writes: WriteModelConfig::paper(),
            },
        }
    }

    /// Returns this configuration scaled to roughly `factor`× the trace
    /// volume: `factor`× the objects and `factor`× the target reads over
    /// the same client population and span.
    ///
    /// Scaling the object universe rather than just replaying more reads
    /// keeps the Zipf popularity shape and the per-object read:write
    /// ratio intact, so `paper().scaled(10)` stands in for a BU-style
    /// trace ten times the size — the regime where the paper's 16-byte
    /// per-lease-record state model starts to dominate server memory.
    #[must_use]
    pub fn scaled(mut self, factor: u32) -> WorkloadConfig {
        self.objects *= u64::from(factor);
        self.target_reads *= u64::from(factor);
        self
    }

    /// Shorthand for [`WorkloadPreset::Smoke`].
    pub fn smoke() -> WorkloadConfig {
        WorkloadConfig::preset(WorkloadPreset::Smoke)
    }

    /// Shorthand for [`WorkloadPreset::Medium`].
    pub fn medium() -> WorkloadConfig {
        WorkloadConfig::preset(WorkloadPreset::Medium)
    }

    /// Shorthand for [`WorkloadPreset::Paper`].
    pub fn paper() -> WorkloadConfig {
        WorkloadConfig::preset(WorkloadPreset::Paper)
    }

    /// The simulated span in milliseconds.
    pub fn span_ms(&self) -> u64 {
        (self.days * 86_400_000.0) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (zero clients/servers/objects, non-positive span, or
    /// out-of-range Zipf exponents).
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("clients must be > 0".into());
        }
        if self.servers == 0 {
            return Err("servers must be > 0".into());
        }
        if self.volumes_per_server == 0 {
            return Err("volumes_per_server must be > 0".into());
        }
        if self.objects == 0 {
            return Err("objects must be > 0".into());
        }
        if self.days <= 0.0 || self.days.is_nan() {
            return Err("days must be positive".into());
        }
        if !self.server_zipf_theta.is_finite() || self.server_zipf_theta < 0.0 {
            return Err("server_zipf_theta must be finite and ≥ 0".into());
        }
        if !self.object_zipf_theta.is_finite() || self.object_zipf_theta < 0.0 {
            return Err("object_zipf_theta must be finite and ≥ 0".into());
        }
        if self.mean_burst_len < 1.0 {
            return Err("mean_burst_len must be ≥ 1".into());
        }
        if !(0.0..=1.0).contains(&self.revisit_prob) {
            return Err("revisit_prob must be within [0, 1]".into());
        }
        Ok(())
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::medium()
    }
}

/// Generates a [`Trace`] from a [`WorkloadConfig`].
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    config: WorkloadConfig,
}

impl TraceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`WorkloadConfig::validate`].
    pub fn new(config: WorkloadConfig) -> TraceGenerator {
        if let Err(e) = config.validate() {
            panic!("invalid workload config: {e}");
        }
        TraceGenerator { config }
    }

    /// The configuration this generator uses.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Runs the full pipeline: topology, reads, write-model assignment,
    /// writes, final time-ordered [`Trace`].
    pub fn generate(&self) -> Trace {
        let cfg = &self.config;
        let mut topo_rng = fork(cfg.seed, "topology");
        let universe = self.build_universe(&mut topo_rng);

        let mut read_rng = fork(cfg.seed, "reads");
        let (mut events, read_counts) = self.generate_reads(&universe, &mut read_rng);

        // Rank objects most-read-first for the write model's popularity split.
        let mut rank: Vec<ObjectId> = (0..universe.object_count() as u64).map(ObjectId).collect();
        rank.sort_by(|a, b| {
            read_counts[b.raw() as usize]
                .cmp(&read_counts[a.raw() as usize])
                .then(a.cmp(b))
        });

        let mut write_rng = fork(cfg.seed, "writes");
        let model = WriteModel::assign(&rank, cfg.writes, &mut write_rng);
        events.extend(model.generate(&universe, cfg.days, &mut write_rng));

        Trace::new(universe, events)
    }

    fn build_universe<R: Rng + ?Sized>(&self, rng: &mut R) -> Universe {
        let cfg = &self.config;
        let vps = cfg.volumes_per_server;
        let total_volumes = cfg.servers * vps;
        let mut builder = UniverseBuilder::new();
        for s in 0..cfg.servers {
            for _ in 0..vps {
                builder.add_volume(ServerId(s));
            }
        }
        // Place objects by server-popularity Zipf (then uniformly across
        // the server's volume shards), but give every volume at least one
        // object so volume choice never dead-ends.
        let server_zipf = Zipf::new(cfg.servers as usize, cfg.server_zipf_theta);
        for v in 0..total_volumes.min(cfg.objects as u32) {
            builder.add_object(
                VolumeId(v),
                sample_size(rng, cfg.size_median_bytes, cfg.size_sigma),
            );
        }
        let placed = u64::from(total_volumes.min(cfg.objects as u32));
        for _ in placed..cfg.objects {
            let server = server_zipf.sample(rng) as u32;
            let v = VolumeId(server * vps + rng.gen_range(0..vps));
            builder.add_object(v, sample_size(rng, cfg.size_median_bytes, cfg.size_sigma));
        }
        builder.build()
    }

    fn generate_reads<R: Rng + ?Sized>(
        &self,
        universe: &Universe,
        rng: &mut R,
    ) -> (Vec<TraceEvent>, Vec<u64>) {
        let cfg = &self.config;
        let span_ms = cfg.span_ms();
        let reads_per_client = (cfg.target_reads / u64::from(cfg.clients)).max(1);
        // Derive the inter-session think time so the quota roughly spans
        // the configured days: sessions_needed × (think + burst·gap) ≈ span.
        let sessions_needed = reads_per_client as f64 / cfg.mean_burst_len;
        let burst_ms = cfg.mean_burst_len * cfg.mean_intra_burst_gap_secs * 1000.0;
        let think_ms = (span_ms as f64 / sessions_needed - burst_ms).max(60_000.0);

        // Sessions pick a *server* by popularity, then one of its volume
        // shards uniformly.
        let server_zipf = Zipf::new(cfg.servers as usize, cfg.server_zipf_theta);
        let vps = cfg.volumes_per_server;
        // Per-volume object choice reuses one Zipf table per volume size.
        let mut zipf_cache: HashMap<usize, Zipf> = HashMap::new();

        let mut events = Vec::with_capacity(cfg.target_reads as usize);
        let mut read_counts = vec![0u64; universe.object_count()];

        // Each client remembers its recent pages (bursts); a revisit
        // session replays one verbatim, like a browser reload.
        const HISTORY: usize = 64;

        for c in 0..cfg.clients {
            let client = ClientId(c);
            let mut remaining = reads_per_client;
            let mut history: Vec<Vec<ObjectId>> = Vec::with_capacity(HISTORY);
            // Stagger client start times so bursts do not align.
            let mut t = exponential(rng, think_ms / 2.0);
            while remaining > 0 && (t as u64) < span_ms {
                let replay = !history.is_empty() && rng.gen_range(0.0..1.0) < cfg.revisit_prob;
                let page: Vec<ObjectId> = if replay {
                    history[rng.gen_range(0..history.len())].clone()
                } else {
                    // Pick a server by popularity, then a non-empty shard
                    // on it; when objects are scarcer than volumes some
                    // shards are empty, so fall back to a linear scan.
                    let mut vol = None;
                    for _ in 0..16 {
                        let server = server_zipf.sample(rng) as u32;
                        let candidate =
                            universe.volume(VolumeId(server * vps + rng.gen_range(0..vps)));
                        if !candidate.objects.is_empty() {
                            vol = Some(candidate);
                            break;
                        }
                    }
                    let vol = vol.unwrap_or_else(|| {
                        universe
                            .volumes()
                            .iter()
                            .find(|v| !v.objects.is_empty())
                            .expect("at least one object exists")
                    });
                    let zipf = zipf_cache
                        .entry(vol.objects.len())
                        .or_insert_with(|| Zipf::new(vol.objects.len(), cfg.object_zipf_theta));
                    let burst = 1 + exponential(rng, cfg.mean_burst_len - 1.0).round() as usize;
                    let objects: Vec<ObjectId> =
                        (0..burst).map(|_| vol.objects[zipf.sample(rng)]).collect();
                    if history.len() < HISTORY {
                        history.push(objects.clone());
                    } else {
                        let slot = rng.gen_range(0..HISTORY);
                        history[slot] = objects.clone();
                    }
                    objects
                };
                for object in page {
                    if remaining == 0 || t as u64 >= span_ms {
                        break;
                    }
                    events.push(TraceEvent::Read {
                        at: Timestamp::from_millis(t as u64),
                        client,
                        object,
                    });
                    read_counts[object.raw() as usize] += 1;
                    remaining -= 1;
                    t += exponential(rng, cfg.mean_intra_burst_gap_secs * 1000.0);
                }
                t += exponential(rng, think_ms);
            }
        }
        (events, read_counts)
    }
}

fn sample_size<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> u64 {
    (log_normal(rng, median, sigma) as u64).clamp(200, 2_000_000)
}

/// Derives a named child RNG from the master seed: FNV-1a over the
/// label, mixed with the seed. Every generated trace, and so every
/// committed CSV, is a function of this stream, so the mixing is fixed.
fn fork(seed: u64, label: &str) -> impl Rng {
    use rand::SeedableRng;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    rand::rngs::StdRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_preset_generates_reasonable_trace() {
        let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        let cfg = WorkloadConfig::smoke();
        let reads = trace.read_count();
        // Within 40% of target (generation is stochastic and span-limited).
        assert!(
            reads as f64 > cfg.target_reads as f64 * 0.6,
            "reads {reads} far below target {}",
            cfg.target_reads
        );
        assert!(trace.write_count() > 0);
        assert!(trace.span().as_secs() <= (cfg.days * 86_400.0) as u64 + 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        let b = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        assert_eq!(a.events().len(), b.events().len());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.seed = 1;
        let a = TraceGenerator::new(cfg.clone()).generate();
        cfg.seed = 2;
        let b = TraceGenerator::new(cfg).generate();
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn every_volume_has_objects() {
        let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        for v in trace.universe().volumes() {
            assert!(!v.objects.is_empty(), "volume {} empty", v.id);
        }
    }

    #[test]
    fn server_popularity_is_skewed() {
        let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        let ranked = trace.servers_by_popularity();
        let top = ranked[0].1;
        let bottom = ranked.last().unwrap().1;
        assert!(
            top > bottom * 2,
            "expected Zipf skew, top {top} vs bottom {bottom}"
        );
    }

    #[test]
    fn reads_spread_over_span_days() {
        let cfg = WorkloadConfig::smoke();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        // The last read should land in the final quarter of the span —
        // i.e. think-time calibration actually stretches the quota out.
        let last_read = trace
            .events()
            .iter()
            .filter(|e| e.is_read())
            .map(|e| e.at())
            .max()
            .unwrap();
        assert!(
            last_read.as_millis() > cfg.span_ms() / 2,
            "reads end too early: {last_read} of {} ms span",
            cfg.span_ms()
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.clients = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = WorkloadConfig::smoke();
        cfg.days = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = WorkloadConfig::smoke();
        cfg.mean_burst_len = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = WorkloadConfig::smoke();
        cfg.object_zipf_theta = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = WorkloadConfig::smoke();
        cfg.revisit_prob = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid workload config")]
    fn generator_panics_on_invalid() {
        let mut cfg = WorkloadConfig::smoke();
        cfg.servers = 0;
        let _ = TraceGenerator::new(cfg);
    }

    #[test]
    fn presets_scale_up() {
        let smoke = WorkloadConfig::smoke();
        let medium = WorkloadConfig::medium();
        let paper = WorkloadConfig::paper();
        assert!(smoke.objects < medium.objects && medium.objects < paper.objects);
        assert_eq!(paper.objects, 68_665);
        assert_eq!(paper.target_reads, 1_034_077);
        assert_eq!(paper.servers, 1000);
        assert_eq!(paper.clients, 33);
    }
}

//! Convenience harness over [`seaweed_core::build_world`] for the
//! examples and the root integration tests: a uniform-latency fabric,
//! availability driven all-up or from a trace, Anemone fragments.

use seaweed_availability::AvailabilityTrace;
use seaweed_core::{
    boot_staggered, build_world, LiveTables, Seaweed, SeaweedConfig, SeaweedEngine,
};
use seaweed_overlay::OverlayConfig;
use seaweed_sim::{SimConfig, UniformTopology};
use seaweed_store::Table;
use seaweed_types::Duration;
use seaweed_workload::AnemoneConfig;

/// How endsystem availability is driven.
#[derive(Debug)]
pub enum Availability<'a> {
    /// Everyone comes up near t=0 (staggered by `stagger` per node) and
    /// stays up.
    AllUp { stagger: Duration },
    /// Replay a trace (Farsite-like, Gnutella-like, or custom).
    Trace(&'a AvailabilityTrace),
}

/// World construction knobs.
#[derive(Debug)]
pub struct WorldConfig {
    pub n: usize,
    pub seed: u64,
    /// One-way latency of the uniform fabric. (The packet-level
    /// experiments run on the CorpNet router topology instead, through
    /// `build_world` directly.)
    pub uniform_latency: Duration,
    /// Collect per-(node,hour) bandwidth samples for CDFs.
    pub collect_cdf: bool,
}

impl WorldConfig {
    /// Sensible defaults for `n` endsystems under `seed`.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        WorldConfig {
            n,
            seed,
            uniform_latency: Duration::from_millis(5),
            collect_cdf: false,
        }
    }

    /// Builds a world over explicit per-endsystem tables.
    #[must_use]
    pub fn build_with_tables(
        &self,
        tables: Vec<Table>,
        availability: Availability<'_>,
    ) -> (SeaweedEngine, Seaweed<LiveTables>) {
        assert_eq!(tables.len(), self.n);
        let (mut eng, sw) = build_world(
            Box::new(UniformTopology::new(self.n, self.uniform_latency)),
            self.seed,
            SimConfig {
                collect_cdf: self.collect_cdf,
                ..SimConfig::default()
            },
            OverlayConfig::default(),
            SeaweedConfig::default(),
            LiveTables::new(tables),
        );
        match availability {
            Availability::AllUp { stagger } => boot_staggered(&mut eng, stagger),
            Availability::Trace(trace) => trace.replay_into(&mut eng),
        }
        (eng, sw)
    }

    /// Builds a world whose endsystems hold Anemone `Flow` fragments.
    /// When a trace is supplied, traffic is gated on each endsystem's
    /// uptime (machines generate no data while off).
    #[must_use]
    pub fn build_anemone(
        &self,
        anemone: &AnemoneConfig,
        availability: Availability<'_>,
    ) -> (SeaweedEngine, Seaweed<LiveTables>) {
        let tables: Vec<Table> = (0..self.n)
            .map(|node| {
                let intervals = match &availability {
                    Availability::Trace(t) => t.intervals(node).to_vec(),
                    Availability::AllUp { .. } => Vec::new(),
                };
                anemone.generate_flow_table(self.seed, node, &intervals)
            })
            .collect();
        self.build_with_tables(tables, availability)
    }
}

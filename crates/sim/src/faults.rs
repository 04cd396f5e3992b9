//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative, fully-precomputed schedule of faults
//! — network partitions, per-link degradation windows, crash-with-amnesia,
//! correlated outage bursts, message duplication and bounded reordering —
//! that the engine consults on every `send()` and node transition. The
//! plan is part of [`crate::SimConfig`], so a fixed seed plus a fixed plan
//! reproduces a byte-identical run.
//!
//! Determinism contract:
//!
//! * The injector draws from its **own** seeded RNG stream
//!   (`FAULTS_STREAM`), never the engine's, so installing a plan does
//!   not perturb the engine's loss draws, and an *empty* plan consumes
//!   zero draws — a run without faults is bit-for-bit identical to a run
//!   on an engine that predates this module.
//! * Injector draws happen only when a fault is actually in force (a
//!   degradation window is open, duplication or reordering is enabled),
//!   in a fixed order per send: link-loss, reorder jitter, duplication,
//!   duplicate's jitter.
//!
//! Partition membership is expressed as an explicit endsystem set, but
//! the intended construction is structural: cut a router in a
//! [`CorpNetTopology`] and every endsystem of its subtree loses
//! cross-partition reachability until the heal time
//! ([`PartitionSpec::from_router_cut`]). Correlated outages
//! ([`OutageSpec::branch_outage`]) take a whole branch down together,
//! optionally with amnesia (soft state wiped on the way down, so the
//! rejoin is *not* a clean rejoin).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_types::{Duration, Time};

use crate::engine::NodeIdx;
use crate::topology::{CorpNetTopology, Topology};

/// Stream-separation constant: the injector's RNG never shares a stream
/// with the engine, topology, overlay or application RNGs derived from
/// the same experiment seed.
const FAULTS_STREAM: u64 = 0xfa01_7fa0_17fa;

/// One network partition: `members` are isolated from every non-member
/// between `from` and `until`. Traffic *within* the member set (and
/// within the complement) is unaffected.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// Endsystem indices on the isolated side of the cut.
    pub members: Vec<u32>,
    /// Partition start (inclusive).
    pub from: Time,
    /// Heal time (exclusive).
    pub until: Time,
}

impl PartitionSpec {
    /// Structural partition: cutting `router` isolates its attached
    /// endsystems — and, for a regional router, the endsystems of every
    /// branch router homed to it — from the rest of the network.
    #[must_use]
    pub fn from_router_cut(topo: &CorpNetTopology, router: usize, from: Time, until: Time) -> Self {
        PartitionSpec {
            members: topo.subtree_endsystems(router),
            from,
            until,
        }
    }
}

/// A degradation window on the router pair `(zone_a, zone_b)`: traffic
/// between the two zones (in either direction) suffers `extra_loss` and a
/// `latency_mult` slowdown while the window is open.
#[derive(Clone, Debug)]
pub struct LinkFaultSpec {
    pub zone_a: u32,
    pub zone_b: u32,
    pub from: Time,
    pub until: Time,
    /// Probability a crossing message is dropped (on top of base loss).
    pub extra_loss: f64,
    /// Latency multiplier for surviving crossings (≥ 1.0).
    pub latency_mult: f64,
}

impl LinkFaultSpec {
    fn covers(&self, now: Time, za: u32, zb: u32) -> bool {
        now >= self.from
            && now < self.until
            && ((za, zb) == (self.zone_a, self.zone_b) || (zb, za) == (self.zone_a, self.zone_b))
    }
}

/// Crash-with-amnesia: the node goes down at `at` with its soft state
/// (vertex state, pending submissions, execution bookkeeping) wiped, and
/// rejoins `rejoin_after` later remembering nothing it had not persisted.
#[derive(Clone, Debug)]
pub struct CrashSpec {
    pub node: NodeIdx,
    pub at: Time,
    pub rejoin_after: Duration,
}

/// A correlated outage burst: every member goes down at `down_at` and
/// comes back at `up_at`. With `amnesia`, the burst is a mass crash
/// (state wiped) rather than a clean power-down.
#[derive(Clone, Debug)]
pub struct OutageSpec {
    pub members: Vec<u32>,
    pub down_at: Time,
    pub up_at: Time,
    pub amnesia: bool,
}

impl OutageSpec {
    /// A whole branch failing together: every endsystem in `router`'s
    /// subtree goes down at once.
    #[must_use]
    pub fn branch_outage(
        topo: &CorpNetTopology,
        router: usize,
        down_at: Time,
        up_at: Time,
        amnesia: bool,
    ) -> Self {
        OutageSpec {
            members: topo.subtree_endsystems(router),
            down_at,
            up_at,
            amnesia,
        }
    }
}

/// A complete, declarative fault schedule. An empty (default) plan
/// injects nothing and costs nothing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub partitions: Vec<PartitionSpec>,
    pub link_faults: Vec<LinkFaultSpec>,
    pub crashes: Vec<CrashSpec>,
    pub outages: Vec<OutageSpec>,
    /// Probability any surviving message is delivered twice.
    pub dup_rate: f64,
    /// Maximum extra delivery jitter; > 0 lets later sends overtake
    /// earlier ones (bounded reordering).
    pub reorder_window: Duration,
}

impl FaultPlan {
    /// Does this plan inject anything at all?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.link_faults.is_empty()
            && self.crashes.is_empty()
            && self.outages.is_empty()
            && self.dup_rate == 0.0
            && self.reorder_window == Duration::ZERO
    }

    /// The chaos schedule the fault-tolerance suites and `chaos01_faults`
    /// share, anchored at a query injected 600 s in: the largest regional
    /// subtree is cut off from 602 s to 780 s, the largest branch crashes
    /// with amnesia from 640 s to 700 s, one router pair is degraded from
    /// 600 s to 720 s (15% extra loss, 3× latency), two bystanders outside
    /// both sets crash at 630 s and 690 s, and throughout 2% of messages
    /// are duplicated and deliveries reorder within 50 ms.
    ///
    /// Endsystem 0, the conventional query origin, is never a bystander.
    /// `spared` endsystems (the shard origins of a federated run) are
    /// kept out of the outage and the crashes as well.
    ///
    /// # Panics
    /// Panics if the topology has no regional or branch router, or fewer
    /// than two eligible bystanders.
    #[must_use]
    pub fn chaos(topo: &CorpNetTopology, spared: &[u32]) -> FaultPlan {
        let secs = |s: u64| Time(s * 1_000_000);
        let largest = |routers: std::ops::Range<usize>| {
            routers
                .max_by_key(|&r| topo.subtree_endsystems(r).len())
                .expect("topology has the router tier")
        };
        let regional = largest(topo.num_core()..topo.num_core() + topo.num_regional());
        let partition = PartitionSpec::from_router_cut(topo, regional, secs(602), secs(780));
        let mut outage = OutageSpec::branch_outage(
            topo,
            largest(topo.branch_routers()),
            secs(640),
            secs(700),
            true,
        );
        outage.members.retain(|m| !spared.contains(m));

        // Disjoint from the partition and the outage: overlap is legal,
        // but disjointness keeps every fault observable.
        let mut bystanders = (1..topo.num_endsystems() as u32).filter(|m| {
            !partition.members.contains(m) && !outage.members.contains(m) && !spared.contains(m)
        });
        let mut crash = |at: u64, rejoin: u64| CrashSpec {
            node: NodeIdx(bystanders.next().expect("two bystanders")),
            at: secs(at),
            rejoin_after: Duration::from_secs(rejoin),
        };
        let crashes = vec![crash(630, 60), crash(690, 45)];

        let za = topo.router_of(NodeIdx(1)) as u32;
        let mut zb = topo.router_of(NodeIdx(2)) as u32;
        if zb == za {
            zb = topo.router_of(NodeIdx(3)) as u32;
        }
        FaultPlan {
            partitions: vec![partition],
            link_faults: vec![LinkFaultSpec {
                zone_a: za,
                zone_b: zb,
                from: secs(600),
                until: secs(720),
                extra_loss: 0.15,
                latency_mult: 3.0,
            }],
            crashes,
            outages: vec![outage],
            dup_rate: 0.02,
            reorder_window: Duration::from_millis(50),
        }
    }

    /// Projects this plan onto one execution partition: `members` is the
    /// ascending global→local mapping of the shard (as produced by
    /// [`crate::topology::PartitionMap`]), and all node-addressed specs
    /// are filtered to shard members and re-indexed into the shard's
    /// local node space. Zone-addressed link faults pass through
    /// untouched — zones stay global (a [`crate::topology::SubTopology`]
    /// reports global zones), so a degraded WAN pair degrades exactly the
    /// member traffic it would have degraded in a monolithic run.
    /// Network-partition and outage specs whose membership misses the
    /// shard entirely are dropped; duplication and reordering rates apply
    /// in every shard (each shard's injector has its own RNG stream).
    #[must_use]
    pub fn for_partition(&self, members: &[u32]) -> FaultPlan {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let local_of = |g: u32| -> Option<u32> { members.binary_search(&g).ok().map(|l| l as u32) };
        let remap_set =
            |set: &[u32]| -> Vec<u32> { set.iter().filter_map(|&g| local_of(g)).collect() };
        FaultPlan {
            partitions: self
                .partitions
                .iter()
                .filter_map(|p| {
                    let members = remap_set(&p.members);
                    (!members.is_empty()).then_some(PartitionSpec {
                        members,
                        from: p.from,
                        until: p.until,
                    })
                })
                .collect(),
            link_faults: self.link_faults.clone(),
            crashes: self
                .crashes
                .iter()
                .filter_map(|c| {
                    local_of(c.node.0).map(|l| CrashSpec {
                        node: NodeIdx(l),
                        at: c.at,
                        rejoin_after: c.rejoin_after,
                    })
                })
                .collect(),
            outages: self
                .outages
                .iter()
                .filter_map(|o| {
                    let members = remap_set(&o.members);
                    (!members.is_empty()).then_some(OutageSpec {
                        members,
                        down_at: o.down_at,
                        up_at: o.up_at,
                        amnesia: o.amnesia,
                    })
                })
                .collect(),
            dup_rate: self.dup_rate,
            reorder_window: self.reorder_window,
        }
    }
}

/// Per-send verdict of the link-degradation check.
#[derive(Debug)]
pub enum LinkEffect {
    /// No window covers this pair: deliver normally.
    Pass,
    /// Dropped by window loss.
    Drop,
    /// Delivered, with the window's latency multiplier.
    Delay(f64),
}

/// Runtime state of a [`FaultPlan`]: membership bitsets, the set of
/// currently-open partitions, and the injector's private RNG stream.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// Per-partition endsystem membership bitset.
    member_bits: Vec<Vec<u64>>,
    /// Which partitions are currently in force.
    active: Vec<bool>,
    num_active: usize,
}

impl FaultInjector {
    #[must_use]
    pub fn new(plan: FaultPlan, seed: u64, num_nodes: usize) -> Self {
        let words = num_nodes.div_ceil(64);
        let member_bits = plan
            .partitions
            .iter()
            .map(|p| {
                let mut bits = vec![0u64; words];
                for &m in &p.members {
                    assert!((m as usize) < num_nodes, "partition member out of range");
                    bits[m as usize / 64] |= 1 << (m % 64);
                }
                bits
            })
            .collect();
        let active = vec![false; plan.partitions.len()];
        FaultInjector {
            plan,
            rng: StdRng::seed_from_u64(seed ^ FAULTS_STREAM),
            member_bits,
            active,
            num_active: 0,
        }
    }

    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn partition_started(&mut self, idx: usize) {
        if !self.active[idx] {
            self.active[idx] = true;
            self.num_active += 1;
        }
    }

    pub fn partition_ended(&mut self, idx: usize) {
        if self.active[idx] {
            self.active[idx] = false;
            self.num_active -= 1;
        }
    }

    /// Can `a` currently reach `b`? False iff some open partition has
    /// exactly one of the two inside it.
    #[must_use]
    pub fn reachable(&self, a: NodeIdx, b: NodeIdx) -> bool {
        if self.num_active == 0 {
            return true;
        }
        let in_bits = |bits: &[u64], n: NodeIdx| bits[n.idx() / 64] >> (n.0 % 64) & 1 == 1;
        !self
            .active
            .iter()
            .zip(&self.member_bits)
            .any(|(&on, bits)| on && in_bits(bits, a) != in_bits(bits, b))
    }

    /// Link-degradation verdict for a send between zones `za` and `zb` at
    /// `now`. Draws the injector RNG only when a window actually covers
    /// the pair; the first covering window (plan order) applies.
    pub fn link_effect(&mut self, now: Time, za: u32, zb: u32) -> LinkEffect {
        for f in &self.plan.link_faults {
            if f.covers(now, za, zb) {
                if f.extra_loss > 0.0 && self.rng.gen::<f64>() < f.extra_loss {
                    return LinkEffect::Drop;
                }
                return LinkEffect::Delay(f.latency_mult);
            }
        }
        LinkEffect::Pass
    }

    /// Extra delivery jitter for one message copy. Zero (and no RNG
    /// draw) when reordering is disabled.
    pub fn reorder_jitter(&mut self) -> Duration {
        let w = self.plan.reorder_window.as_micros();
        if w == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(self.rng.gen_range(0..=w))
        }
    }

    /// Should this message be delivered twice? No RNG draw when
    /// duplication is disabled.
    pub fn duplicate(&mut self) -> bool {
        self.plan.dup_rate > 0.0 && self.rng.gen::<f64>() < self.plan.dup_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_with_partition(members: Vec<u32>) -> FaultPlan {
        FaultPlan {
            partitions: vec![PartitionSpec {
                members,
                from: Time(10),
                until: Time(20),
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn empty_plan_is_empty_and_injects_nothing() {
        assert!(FaultPlan::default().is_empty());
        let mut inj = FaultInjector::new(FaultPlan::default(), 1, 8);
        assert!(inj.reachable(NodeIdx(0), NodeIdx(7)));
        assert!(matches!(inj.link_effect(Time(5), 0, 1), LinkEffect::Pass));
        assert_eq!(inj.reorder_jitter(), Duration::ZERO);
        assert!(!inj.duplicate());
    }

    #[test]
    fn partition_splits_reachability_both_ways() {
        let mut inj = FaultInjector::new(plan_with_partition(vec![1, 2]), 7, 8);
        assert!(inj.reachable(NodeIdx(1), NodeIdx(0)));
        inj.partition_started(0);
        assert!(!inj.reachable(NodeIdx(1), NodeIdx(0)));
        assert!(!inj.reachable(NodeIdx(0), NodeIdx(2)));
        assert!(inj.reachable(NodeIdx(1), NodeIdx(2)), "same side");
        assert!(inj.reachable(NodeIdx(0), NodeIdx(5)), "same side");
        inj.partition_ended(0);
        assert!(inj.reachable(NodeIdx(1), NodeIdx(0)));
    }

    #[test]
    fn link_fault_applies_only_inside_window_and_zones() {
        let plan = FaultPlan {
            link_faults: vec![LinkFaultSpec {
                zone_a: 3,
                zone_b: 9,
                from: Time(100),
                until: Time(200),
                extra_loss: 0.0,
                latency_mult: 4.0,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 1, 4);
        assert!(matches!(inj.link_effect(Time(50), 3, 9), LinkEffect::Pass));
        assert!(matches!(
            inj.link_effect(Time(150), 3, 9),
            LinkEffect::Delay(m) if (m - 4.0).abs() < 1e-12
        ));
        // Symmetric pair, window edge is exclusive.
        assert!(matches!(
            inj.link_effect(Time(150), 9, 3),
            LinkEffect::Delay(_)
        ));
        assert!(matches!(inj.link_effect(Time(200), 3, 9), LinkEffect::Pass));
        assert!(matches!(inj.link_effect(Time(150), 3, 4), LinkEffect::Pass));
    }

    #[test]
    fn for_partition_filters_and_remaps() {
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                members: vec![1, 4, 6],
                from: Time(10),
                until: Time(20),
            }],
            link_faults: vec![LinkFaultSpec {
                zone_a: 3,
                zone_b: 9,
                from: Time(0),
                until: Time(5),
                extra_loss: 0.1,
                latency_mult: 2.0,
            }],
            crashes: vec![
                CrashSpec {
                    node: NodeIdx(4),
                    at: Time(1),
                    rejoin_after: Duration::from_micros(5),
                },
                CrashSpec {
                    node: NodeIdx(3),
                    at: Time(2),
                    rejoin_after: Duration::from_micros(5),
                },
            ],
            outages: vec![OutageSpec {
                members: vec![0, 3],
                down_at: Time(7),
                up_at: Time(9),
                amnesia: true,
            }],
            dup_rate: 0.25,
            reorder_window: Duration::from_micros(100),
        };
        // Shard holding globals {2, 4, 6} (locals 0, 1, 2).
        let shard = plan.for_partition(&[2, 4, 6]);
        assert_eq!(shard.partitions.len(), 1);
        assert_eq!(shard.partitions[0].members, vec![1, 2]); // globals 4, 6
        assert_eq!(shard.crashes.len(), 1);
        assert_eq!(shard.crashes[0].node, NodeIdx(1)); // global 4
        assert!(shard.outages.is_empty(), "no outage member in shard");
        // Zone-addressed and rate faults pass through globally.
        assert_eq!(shard.link_faults.len(), 1);
        assert_eq!(shard.dup_rate, 0.25);
        assert_eq!(shard.reorder_window, Duration::from_micros(100));
        // A shard containing none of the node-addressed faults.
        let other = plan.for_partition(&[0, 5]);
        assert!(other.partitions.is_empty());
        assert!(other.crashes.is_empty());
        assert_eq!(other.outages[0].members, vec![0]); // global 0
    }

    #[test]
    fn injector_stream_is_deterministic() {
        let plan = FaultPlan {
            dup_rate: 0.5,
            reorder_window: Duration::from_micros(1_000),
            ..FaultPlan::default()
        };
        let run = || {
            let mut inj = FaultInjector::new(plan.clone(), 42, 4);
            (0..64)
                .map(|_| (inj.reorder_jitter(), inj.duplicate()))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|&(_, d)| d), "some duplicates at 50%");
        assert!(a.iter().any(|&(j, _)| j > Duration::ZERO));
    }
}

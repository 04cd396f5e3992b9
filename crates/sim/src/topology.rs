//! Network topology models providing one-way message latencies.
//!
//! The paper's packet-level simulations use the *CorpNet topology*: 298
//! routers measured from the world-wide Microsoft corporate network, with
//! per-link minimum RTTs; each endsystem attaches to a uniformly random
//! router over a 1 ms LAN link. The measured topology is proprietary, so
//! [`CorpNetTopology`] synthesizes a three-tier corporate WAN of the same
//! size and flavour (DESIGN.md "Substitutions"): a full-mesh-ish
//! backbone of core routers spanning continents, regional aggregation
//! routers, and branch routers, with RTTs drawn from ranges typical of each
//! tier. All-pairs router RTTs are precomputed (Dijkstra from every
//! router, a few milliseconds at 298), so latency lookup during
//! simulation is O(1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_types::Duration;

use crate::engine::NodeIdx;

/// Provides one-way network delay between endsystems.
pub trait Topology {
    /// One-way latency from endsystem `a` to endsystem `b`.
    fn one_way(&self, a: NodeIdx, b: NodeIdx) -> Duration;

    /// Number of endsystems the topology was built for.
    fn num_endsystems(&self) -> usize;

    /// Coarse network zone an endsystem belongs to, used by the fault
    /// layer to scope link-degradation windows (e.g. "traffic between
    /// router 3 and router 17 is degraded"). Topologies without internal
    /// structure put every endsystem in zone 0.
    fn zone_of(&self, _node: NodeIdx) -> u32 {
        0
    }

    /// Shards the endsystems into `parts` partitions suitable for
    /// conservative parallel execution ([`crate::exec`]): members of
    /// different partitions must be at least [`PartitionMap::lookahead`]
    /// of one-way latency apart. Returns `None` when the topology cannot
    /// offer a useful cut (no internal structure, fewer natural sites
    /// than partitions, or `parts < 2`).
    fn partition_map(&self, _parts: usize) -> Option<PartitionMap> {
        None
    }
}

/// A sharding of a topology's endsystems for partitioned execution, with
/// the latency guarantee conservative synchronization needs.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    /// Partition index per endsystem (global index space).
    pub part_of: Vec<u32>,
    /// Global endsystem indices per partition, ascending — the canonical
    /// local→global mapping for each shard (local `i` is `members[p][i]`).
    pub members: Vec<Vec<u32>>,
    /// Guaranteed minimum one-way latency between any two endsystems in
    /// different partitions. Every cross-partition message takes at least
    /// this long, which is what lets a partition safely execute a window
    /// of that width without hearing from its peers.
    pub lookahead: Duration,
}

impl PartitionMap {
    /// Builds the map from a per-endsystem partition assignment.
    fn from_assignment(part_of: Vec<u32>, parts: usize, lookahead: Duration) -> Self {
        let mut members = vec![Vec::new(); parts];
        for (e, &p) in part_of.iter().enumerate() {
            members[p as usize].push(e as u32);
        }
        PartitionMap {
            part_of,
            members,
            lookahead,
        }
    }

    /// Number of partitions.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.members.len()
    }
}

/// A partition's view of a global topology: local node indices
/// `0..members.len()` mapped onto the member endsystems of one shard.
/// Latencies and zones delegate to the global model, so intra-shard
/// behaviour (including zone-scoped link faults) is identical to the
/// same endsystems' behaviour in a monolithic run.
pub struct SubTopology {
    global: std::sync::Arc<dyn Topology + Send + Sync>,
    /// Global endsystem index per local index (ascending).
    members: Vec<u32>,
}

impl SubTopology {
    #[must_use]
    pub fn new(global: std::sync::Arc<dyn Topology + Send + Sync>, members: Vec<u32>) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(members
            .iter()
            .all(|&m| (m as usize) < global.num_endsystems()));
        SubTopology { global, members }
    }
}

impl std::fmt::Debug for SubTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubTopology")
            .field("members", &self.members.len())
            .field("global_endsystems", &self.global.num_endsystems())
            .finish()
    }
}

impl Topology for SubTopology {
    fn one_way(&self, a: NodeIdx, b: NodeIdx) -> Duration {
        self.global.one_way(
            NodeIdx(self.members[a.idx()]),
            NodeIdx(self.members[b.idx()]),
        )
    }

    fn num_endsystems(&self) -> usize {
        self.members.len()
    }

    fn zone_of(&self, node: NodeIdx) -> u32 {
        self.global.zone_of(NodeIdx(self.members[node.idx()]))
    }
}

/// Trivial fabric: every pair of distinct endsystems is `latency` apart.
/// Used by unit tests and by the availability-only simulator where network
/// latency is irrelevant.
#[derive(Debug, Clone)]
pub struct UniformTopology {
    n: usize,
    latency: Duration,
}

impl UniformTopology {
    #[must_use]
    pub fn new(n: usize, latency: Duration) -> Self {
        UniformTopology { n, latency }
    }
}

impl Topology for UniformTopology {
    fn one_way(&self, a: NodeIdx, b: NodeIdx) -> Duration {
        if a == b {
            Duration::ZERO
        } else {
            self.latency
        }
    }

    fn num_endsystems(&self) -> usize {
        self.n
    }

    /// Contiguous equal chunks; every pair of distinct endsystems is
    /// exactly `latency` apart, so the lookahead is the latency itself —
    /// the tightest partition-boundary case the executor ever faces
    /// (exercised deliberately by the boundary torture test).
    fn partition_map(&self, parts: usize) -> Option<PartitionMap> {
        if parts < 2 || parts > self.n || self.latency == Duration::ZERO {
            return None;
        }
        let part_of = (0..self.n).map(|e| ((e * parts) / self.n) as u32).collect();
        Some(PartitionMap::from_assignment(part_of, parts, self.latency))
    }
}

/// Synthetic world-wide corporate WAN in the mould of the paper's CorpNet
/// topology: `num_routers` routers in a three-tier hierarchy, all-pairs
/// shortest-path RTTs, endsystems attached to random routers by 1 ms LAN
/// links.
#[derive(Debug)]
pub struct CorpNetTopology {
    /// Half of the router-to-router RTT (i.e. one-way), in microseconds,
    /// as a flattened `num_routers × num_routers` matrix.
    one_way_us: Vec<u32>,
    num_routers: usize,
    /// Router each endsystem attaches to.
    attach: Vec<u32>,
    /// One-way LAN delay between an endsystem and its router.
    lan: Duration,
    /// Tier boundaries: routers `[0, n_core)` are core,
    /// `[n_core, n_core + n_regional)` regional, the rest branch.
    n_core: usize,
    n_regional: usize,
    /// For each router, the single regional router it is homed to
    /// (branch routers only; core and regional entries hold `u32::MAX`).
    uplink: Vec<u32>,
}

/// Default router count, matching the paper's CorpNet measurement.
pub const CORPNET_ROUTERS: usize = 298;

impl CorpNetTopology {
    /// Builds the synthetic CorpNet with the paper's parameters: 298
    /// routers, 1 ms LAN links, endsystems attached uniformly at random.
    #[must_use]
    pub fn new(num_endsystems: usize, seed: u64) -> Self {
        Self::with_params(num_endsystems, CORPNET_ROUTERS, Duration::MILLISECOND, seed)
    }

    /// Fully parameterized constructor.
    ///
    /// The router graph: ~5% core routers (intercontinental backbone ring +
    /// chords, 20–120 ms RTT links), ~25% regional routers (each homed to
    /// two cores, 2–20 ms), the rest branch routers (homed to one regional,
    /// 0.5–4 ms). This yields the multi-modal RTT distribution of a real
    /// corporate WAN: sub-ms within a site, a few ms within a region,
    /// 100 ms+ across continents.
    #[must_use]
    pub fn with_params(
        num_endsystems: usize,
        num_routers: usize,
        lan: Duration,
        seed: u64,
    ) -> Self {
        assert!(num_routers >= 3, "need at least 3 routers");
        let mut rng = StdRng::seed_from_u64(seed ^ TOPOLOGY_STREAM);
        let (adj, uplink, n_core, n_regional) = build_router_graph(num_routers, &mut rng);

        let rtt = all_pairs_shortest(&adj);
        let one_way_us = rtt.iter().map(|&r| r / 2).collect();

        let attach = (0..num_endsystems)
            .map(|_| rng.gen_range(0..num_routers) as u32)
            .collect();

        CorpNetTopology {
            one_way_us,
            num_routers,
            attach,
            lan,
            n_core,
            n_regional,
            uplink,
        }
    }

    /// Number of core (backbone) routers; indices `[0, n_core)`.
    #[must_use]
    pub fn num_core(&self) -> usize {
        self.n_core
    }

    /// Number of regional routers; indices `[n_core, n_core + n_regional)`.
    #[must_use]
    pub fn num_regional(&self) -> usize {
        self.n_regional
    }

    /// Index range of branch routers (single-homed leaves of the router
    /// hierarchy).
    #[must_use]
    pub fn branch_routers(&self) -> std::ops::Range<usize> {
        self.n_core + self.n_regional..self.num_routers
    }

    /// The regional router a branch router is homed to, or `None` for
    /// core/regional routers.
    #[must_use]
    pub fn uplink_of(&self, router: usize) -> Option<usize> {
        (self.uplink[router] != u32::MAX).then(|| self.uplink[router] as usize)
    }

    /// Endsystems isolated by cutting `router`'s uplinks: everything
    /// attached to `router` itself plus — when `router` is regional — the
    /// endsystems of every branch router homed solely to it. Cutting a
    /// core router is not modelled (the backbone ring keeps cores
    /// reachable), so a core cut isolates only its directly attached
    /// endsystems.
    #[must_use]
    pub fn subtree_endsystems(&self, router: usize) -> Vec<u32> {
        let in_subtree = |r: usize| r == router || self.uplink.get(r) == Some(&(router as u32));
        (0..self.attach.len() as u32)
            .filter(|&e| in_subtree(self.attach[e as usize] as usize))
            .collect()
    }

    /// One-way latency between two routers.
    #[must_use]
    pub fn router_one_way(&self, a: usize, b: usize) -> Duration {
        Duration::from_micros(u64::from(self.one_way_us[a * self.num_routers + b]))
    }

    /// The router an endsystem attaches to.
    #[must_use]
    pub fn router_of(&self, node: NodeIdx) -> usize {
        self.attach[node.0 as usize] as usize
    }

    #[must_use]
    pub fn num_routers(&self) -> usize {
        self.num_routers
    }
}

/// Stream-separation constant so the topology RNG never shares a stream
/// with other components seeded from the same experiment seed.
const TOPOLOGY_STREAM: u64 = 0x5eae_edc0_99e7;

/// Router graph as drawn by [`build_router_graph`]: adjacency list of
/// `(peer, rtt_us)` per router, branch-uplink vector (`u32::MAX` for
/// core/regional routers), and the core/regional tier sizes.
type RouterGraph = (Vec<Vec<(u32, u32)>>, Vec<u32>, usize, usize);

/// Draws the three-tier router graph. Returns the adjacency list of
/// `(peer, rtt_us)` per router, the branch-uplink vector (`u32::MAX` for
/// core/regional routers), and the core/regional tier sizes.
///
/// The RNG draw order here is load-bearing: it is part of the
/// experiment-seed contract, so links must keep being drawn in exactly
/// this sequence.
fn build_router_graph(num_routers: usize, rng: &mut StdRng) -> RouterGraph {
    let n_core = (num_routers / 20).max(3);
    let n_regional = (num_routers / 4).max(n_core);

    // Adjacency list of (peer, rtt_us).
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_routers];
    let link = |adj: &mut Vec<Vec<(u32, u32)>>, a: usize, b: usize, rtt_us: u32| {
        adj[a].push((b as u32, rtt_us));
        adj[b].push((a as u32, rtt_us));
    };

    // Backbone ring over core routers plus random chords.
    for i in 0..n_core {
        let j = (i + 1) % n_core;
        let rtt = rng.gen_range(20_000..=120_000);
        link(&mut adj, i, j, rtt);
    }
    for _ in 0..n_core {
        let a = rng.gen_range(0..n_core);
        let b = rng.gen_range(0..n_core);
        if a != b {
            link(&mut adj, a, b, rng.gen_range(20_000..=120_000));
        }
    }
    // Regional routers dual-homed to cores.
    for r in n_core..n_core + n_regional {
        let c1 = rng.gen_range(0..n_core);
        let mut c2 = rng.gen_range(0..n_core);
        if c2 == c1 {
            c2 = (c1 + 1) % n_core;
        }
        link(&mut adj, r, c1, rng.gen_range(2_000..=20_000));
        link(&mut adj, r, c2, rng.gen_range(2_000..=20_000));
    }
    // Branch routers single-homed to a regional. The homing choice is
    // recorded so the fault layer can derive partition membership
    // (cutting a regional router isolates its whole branch subtree).
    let mut uplink = vec![u32::MAX; num_routers];
    for (b_r, up) in uplink.iter_mut().enumerate().skip(n_core + n_regional) {
        let reg = n_core + rng.gen_range(0..n_regional);
        link(&mut adj, b_r, reg, rng.gen_range(500..=4_000));
        *up = reg as u32;
    }
    (adj, uplink, n_core, n_regional)
}

impl Topology for CorpNetTopology {
    fn one_way(&self, a: NodeIdx, b: NodeIdx) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let ra = self.attach[a.0 as usize] as usize;
        let rb = self.attach[b.0 as usize] as usize;
        // endsystem -> router LAN hop, router path, router -> endsystem.
        self.lan + self.router_one_way(ra, rb) + self.lan
    }

    fn num_endsystems(&self) -> usize {
        self.attach.len()
    }

    fn zone_of(&self, node: NodeIdx) -> u32 {
        self.attach[node.0 as usize]
    }

    /// Shards by *site*: every endsystem behind the same regional
    /// aggregation router (the regional itself plus all branch routers
    /// homed to it) stays together, because intra-site latency can be as
    /// low as the 2 ms double-LAN hop. Cross-site traffic always crosses
    /// at least one regional/core WAN link, so whole sites are the finest
    /// sound unit of distribution. Sites are packed into `parts`
    /// partitions by LPT greedy (largest site first into the least-loaded
    /// partition; ties break on lowest index, so the map is a pure
    /// function of the topology), and the lookahead is the *exact*
    /// minimum endsystem-to-endsystem latency across the chosen cut,
    /// computed from the router matrix.
    fn partition_map(&self, parts: usize) -> Option<PartitionMap> {
        if parts < 2 || self.attach.is_empty() {
            return None;
        }
        // Site of a router: itself for core/regional, its regional uplink
        // for branch routers.
        let site_of_router = |r: usize| -> usize { self.uplink_of(r).unwrap_or(r) };

        // Occupied sites with endsystem counts.
        let mut site_load = vec![0u32; self.num_routers];
        for &r in &self.attach {
            site_load[site_of_router(r as usize)] += 1;
        }
        let mut sites: Vec<usize> = (0..self.num_routers)
            .filter(|&s| site_load[s] > 0)
            .collect();
        if sites.len() < parts {
            return None; // fewer natural sites than requested partitions
        }
        // LPT greedy: biggest site first, least-loaded partition, all
        // ties broken on lowest index.
        sites.sort_by_key(|&s| (std::cmp::Reverse(site_load[s]), s));
        let mut part_load = vec![0u64; parts];
        let mut part_of_site = vec![u32::MAX; self.num_routers];
        for &s in &sites {
            let p = (0..parts)
                .min_by_key(|&p| (part_load[p], p))
                .expect("parts >= 2");
            part_of_site[s] = p as u32;
            part_load[p] += u64::from(site_load[s]);
        }

        let part_of: Vec<u32> = self
            .attach
            .iter()
            .map(|&r| part_of_site[site_of_router(r as usize)])
            .collect();

        // Exact lookahead across the cut: minimum router-to-router
        // one-way over pairs of occupied routers in different partitions,
        // plus the two LAN hops every endsystem path includes.
        let occupied: Vec<usize> = {
            let mut seen = vec![false; self.num_routers];
            for &r in &self.attach {
                seen[r as usize] = true;
            }
            (0..self.num_routers).filter(|&r| seen[r]).collect()
        };
        let mut min_cross = Duration(u64::MAX);
        for (i, &ra) in occupied.iter().enumerate() {
            let pa = part_of_site[site_of_router(ra)];
            for &rb in &occupied[i + 1..] {
                if part_of_site[site_of_router(rb)] != pa {
                    min_cross = min_cross.min(self.router_one_way(ra, rb));
                }
            }
        }
        if min_cross == Duration(u64::MAX) {
            return None; // all occupied sites landed in one partition
        }
        let lookahead = self.lan + min_cross + self.lan;
        Some(PartitionMap::from_assignment(part_of, parts, lookahead))
    }
}

/// Sentinel RTT for unreachable pairs (should not happen in our connected
/// construction).
const UNREACHABLE_US: u32 = u32::MAX / 4;

/// All-pairs shortest paths over the router graph — binary-heap Dijkstra
/// from every source; returns the flattened RTT matrix in microseconds.
/// Unreachable pairs get [`UNREACHABLE_US`].
fn all_pairs_shortest(adj: &[Vec<(u32, u32)>]) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = adj.len();
    let mut out = vec![UNREACHABLE_US; n * n];
    let mut dist = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    for src in 0..n {
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[src] = 0;
        heap.clear();
        heap.push(Reverse((0u32, src as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &adj[u as usize] {
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        for (j, &d) in dist.iter().enumerate() {
            out[src * n + j] = if d == u32::MAX { UNREACHABLE_US } else { d };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency() {
        let t = UniformTopology::new(10, Duration::from_millis(5));
        assert_eq!(t.one_way(NodeIdx(0), NodeIdx(1)), Duration::from_millis(5));
        assert_eq!(t.one_way(NodeIdx(3), NodeIdx(3)), Duration::ZERO);
        assert_eq!(t.num_endsystems(), 10);
    }

    #[test]
    fn corpnet_is_symmetric_and_connected() {
        let t = CorpNetTopology::with_params(100, 50, Duration::MILLISECOND, 7);
        for a in 0..50 {
            for b in 0..50 {
                let ab = t.router_one_way(a, b);
                let ba = t.router_one_way(b, a);
                assert_eq!(ab, ba, "asymmetric {a}->{b}");
                if a != b {
                    assert!(ab > Duration::ZERO);
                    assert!(ab < Duration::from_secs(2), "disconnected? {a}->{b} = {ab}");
                }
            }
        }
    }

    #[test]
    fn corpnet_triangle_inequality() {
        let t = CorpNetTopology::with_params(10, 40, Duration::MILLISECOND, 3);
        for a in 0..40 {
            for b in 0..40 {
                for c in [0usize, 7, 23] {
                    let direct = t.router_one_way(a, b).as_micros();
                    let via =
                        t.router_one_way(a, c).as_micros() + t.router_one_way(c, b).as_micros();
                    // One-way values are RTT/2 with floor division, which
                    // can shave up to 1 us off each leg.
                    assert!(
                        direct <= via + 2,
                        "shortest path violated: {a}->{b} via {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn endsystem_latency_includes_lan_hops() {
        let t = CorpNetTopology::with_params(20, 10, Duration::MILLISECOND, 1);
        let a = NodeIdx(0);
        let b = NodeIdx(1);
        let ra = t.router_of(a);
        let rb = t.router_of(b);
        let expect = Duration::MILLISECOND + t.router_one_way(ra, rb) + Duration::MILLISECOND;
        assert_eq!(t.one_way(a, b), expect);
        // Same endsystem: zero.
        assert_eq!(t.one_way(a, a), Duration::ZERO);
        // Different endsystems on (possibly) the same router: >= 2 ms LAN.
        assert!(t.one_way(a, b) >= Duration::from_millis(2));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let t1 = CorpNetTopology::with_params(50, 30, Duration::MILLISECOND, 99);
        let t2 = CorpNetTopology::with_params(50, 30, Duration::MILLISECOND, 99);
        for a in 0..50u32 {
            let b = (a * 7 + 3) % 50;
            assert_eq!(
                t1.one_way(NodeIdx(a), NodeIdx(b)),
                t2.one_way(NodeIdx(a), NodeIdx(b))
            );
        }
    }

    #[test]
    fn subtree_endsystems_follow_the_router_hierarchy() {
        let t = CorpNetTopology::with_params(200, 40, Duration::MILLISECOND, 11);
        assert!(t.num_core() >= 3);
        assert!(!t.branch_routers().is_empty());
        // Every endsystem's zone is its attach router.
        for e in 0..200u32 {
            assert_eq!(t.zone_of(NodeIdx(e)) as usize, t.router_of(NodeIdx(e)));
        }
        // A branch cut isolates exactly the endsystems attached to it.
        let b = t.branch_routers().start;
        for e in t.subtree_endsystems(b) {
            assert_eq!(t.router_of(NodeIdx(e)), b);
        }
        // A regional cut covers its own endsystems plus those of branches
        // homed to it.
        let reg = t.num_core();
        for e in t.subtree_endsystems(reg) {
            let r = t.router_of(NodeIdx(e));
            assert!(r == reg || t.uplink_of(r) == Some(reg), "endsystem {e}");
        }
        // Branch uplinks land in the regional tier; cores have none.
        for b in t.branch_routers() {
            let up = t.uplink_of(b).expect("branch has an uplink");
            assert!(up >= t.num_core() && up < t.num_core() + t.num_regional());
        }
        assert_eq!(t.uplink_of(0), None);
    }

    #[test]
    fn paper_scale_builds_quickly() {
        // 298 routers as in the paper; should take well under a second.
        let t = CorpNetTopology::new(1000, 42);
        assert_eq!(t.num_routers(), CORPNET_ROUTERS);
        assert_eq!(t.num_endsystems(), 1000);
    }
}

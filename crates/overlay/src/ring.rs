//! Sorted-vector ring index: the ground-truth ring of joined live nodes.
//!
//! The endsystem population is fixed for the lifetime of a run (ids
//! persist across availability sessions), so the index precomputes a
//! *static universe* — every id sorted ascending, with its node — and
//! tracks joined/live membership in a bitset over the sorted ranks.
//! Lookups are a binary search, successor/predecessor walks are bit
//! scans over adjacent words, and range enumeration is a pair of slice
//! iterations with zero allocation. At Farsite scale (51,663
//! endsystems) the whole index is ~1.6 MB of contiguous memory versus a
//! pointer-chased B-tree of 128-bit keys.
//!
//! Walk order is that of the `BTreeMap<u128, NodeIdx>` this replaced
//! (kept as the reference model in this module's tests): clockwise from
//! `id` visits ids in `(id..]` wrapping, ascending; counter-clockwise
//! visits `[..id)` descending then wraps. One benign divergence: that
//! map walk double-visits the ring when `id == u128::MAX` (its
//! `wrapping_add(1)` overflows to an all-covering range chain); the
//! index visits each member once. Ids are uniform random 128-bit
//! values, so the colliding key has probability 2^-128 per run.

use seaweed_sim::NodeIdx;
use seaweed_types::{Id, IdRange};

/// The static sorted universe of endsystem ids plus a live-membership
/// bitset. See the module docs for the layout rationale.
pub struct RingIndex {
    /// All endsystem ids, ascending. Immutable after construction.
    keys: Vec<u128>,
    /// `nodes[rank]` is the endsystem owning `keys[rank]`.
    nodes: Vec<NodeIdx>,
    /// `rank_of[node]` is the node's rank in `keys`.
    rank_of: Vec<u32>,
    /// Joined-live membership bitset over ranks.
    words: Vec<u64>,
    /// Number of set bits in `words`.
    live: usize,
}

impl std::fmt::Debug for RingIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingIndex")
            .field("universe", &self.keys.len())
            .field("live", &self.live)
            .finish()
    }
}

impl RingIndex {
    /// Builds the index over a fixed id assignment. All nodes start
    /// non-member (down).
    ///
    /// # Panics
    /// Panics if two endsystems share an id — the circular namespace
    /// requires unique points.
    #[must_use]
    pub fn new(ids: &[Id]) -> Self {
        let mut order: Vec<u32> = (0..ids.len() as u32).collect();
        order.sort_unstable_by_key(|&i| ids[i as usize].0);
        let keys: Vec<u128> = order.iter().map(|&i| ids[i as usize].0).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "endsystem ids must be unique"
        );
        let nodes: Vec<NodeIdx> = order.iter().map(|&i| NodeIdx(i)).collect();
        let mut rank_of = vec![0u32; ids.len()];
        for (rank, &n) in nodes.iter().enumerate() {
            rank_of[n.idx()] = rank as u32;
        }
        RingIndex {
            words: vec![0u64; keys.len().div_ceil(64)],
            keys,
            nodes,
            rank_of,
            live: 0,
        }
    }

    /// Number of joined live members.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Marks `n` as a joined live member.
    pub fn insert(&mut self, n: NodeIdx) {
        let rank = self.rank_of[n.idx()] as usize;
        let bit = 1u64 << (rank % 64);
        if self.words[rank / 64] & bit == 0 {
            self.words[rank / 64] |= bit;
            self.live += 1;
        }
    }

    /// Clears `n`'s membership.
    pub fn remove(&mut self, n: NodeIdx) {
        let rank = self.rank_of[n.idx()] as usize;
        let bit = 1u64 << (rank % 64);
        if self.words[rank / 64] & bit != 0 {
            self.words[rank / 64] &= !bit;
            self.live -= 1;
        }
    }

    /// The live member owning exactly `key`, if any.
    #[must_use]
    pub fn get_live(&self, key: u128) -> Option<NodeIdx> {
        let rank = self.keys.binary_search(&key).ok()?;
        self.is_live(rank).then(|| self.nodes[rank])
    }

    /// Live members clockwise from `id`: ids strictly greater than `id`
    /// ascending, then wrapping through the smallest ids up to and
    /// including an exact match (which callers skip). The order of a
    /// map's `range((id+1)..).chain(range(..=id))`; see the module docs
    /// for the `id == u128::MAX` divergence.
    pub fn cw_live_from(&self, id: Id) -> impl Iterator<Item = NodeIdx> + '_ {
        let split = self.keys.partition_point(|&k| k <= id.0);
        self.ranks_cw(split, split)
            .map(move |rank| self.nodes[rank])
    }

    /// Live members counter-clockwise from `id`: ids strictly smaller
    /// than `id` descending, then wrapping through the largest ids down
    /// to an exact match. The order of a map's `range(..id).rev()
    /// .chain(range(id..).rev())`.
    pub fn ccw_live_from(&self, id: Id) -> impl Iterator<Item = NodeIdx> + '_ {
        let split = self.keys.partition_point(|&k| k < id.0);
        self.ranks_ccw(split, split)
            .map(move |rank| self.nodes[rank])
    }

    /// Live ranks from `from` upwards, then wrapping, those below `to`.
    fn ranks_cw(&self, from: usize, to: usize) -> CwRanks<'_> {
        SetRanksFwd::new(&self.words, from, self.keys.len()).chain(SetRanksFwd::new(
            &self.words,
            0,
            to,
        ))
    }

    /// Live ranks from below `to` downwards, then wrapping, those from
    /// `from` upwards.
    fn ranks_ccw(&self, to: usize, from: usize) -> CcwRanks<'_> {
        SetRanksRev::new(&self.words, 0, to).chain(SetRanksRev::new(
            &self.words,
            from,
            self.keys.len(),
        ))
    }

    /// Every live member, ring-closest to `id` first with the smaller id
    /// breaking a tie — the one ordering every replica-set question is
    /// asked in. An exact-id match comes first; the rest is a merge of
    /// the clockwise walk up to and including the exactly-opposite point
    /// and the counter-clockwise walk short of it, so each member is
    /// visited once. Nothing is scanned beyond what the caller consumes.
    #[must_use]
    pub fn nearest_live(&self, id: Id) -> NearestLive<'_> {
        let lo = self.keys.partition_point(|&k| k < id.0);
        let exact = self.keys.get(lo) == Some(&id.0);
        let split = lo + usize::from(exact);
        let mut walk = NearestLive {
            index: self,
            id,
            exact: (exact && self.is_live(lo)).then(|| self.nodes[lo]),
            cw: self.ranks_cw(split, lo),
            ccw: self.ranks_ccw(lo, split),
            cw_head: None,
            ccw_head: None,
        };
        walk.advance_cw();
        walk.advance_ccw();
        walk
    }

    /// The ids whose `k` ring-closest live members include the live
    /// member `x`: `None` if `x` is not a member. One pair of `k`-step
    /// walks answers "is `x` in the replica set of `id`?" for any number
    /// of ids.
    #[must_use]
    pub fn served_arc(&self, x: NodeIdx, k: usize) -> Option<ServedArc> {
        let rank = self.rank_of[x.idx()] as usize;
        if !self.is_live(rank) || k == 0 {
            return None;
        }
        let at = Id(self.keys[rank]);
        // `x` serves an id at clockwise offset `o` while fewer than `k`
        // members beat it there. The members that do lie within `o` of
        // the id, i.e. on the clockwise arc of length `2o` from `x`, plus
        // one exactly `2o` away if its id is the smaller. So the k-th
        // member clockwise of `x`, at offset `p`, ends the arc at `p / 2`
        // — one short of it when it sits at exactly `2o` and wins the tie.
        // Counter-clockwise is the mirror image.
        let reach = |kth: Option<usize>, dist: fn(Id, Id) -> u128| match kth {
            None => u128::MAX, // fewer than k others: x serves the whole ring
            Some(r) => {
                let p = dist(at, Id(self.keys[r]));
                p / 2 - u128::from(p.is_multiple_of(2) && self.keys[r] < at.0)
            }
        };
        Some(ServedArc {
            at,
            cw_reach: reach(self.ranks_cw(rank + 1, rank).nth(k - 1), Id::cw_dist),
            ccw_reach: reach(self.ranks_ccw(rank, rank + 1).nth(k - 1), Id::ccw_dist),
        })
    }

    fn is_live(&self, rank: usize) -> bool {
        self.words[rank / 64] & (1u64 << (rank % 64)) != 0
    }

    /// The `k` endsystems (member or not) ring-closest to `key`, ordered
    /// by ring distance with the smaller id breaking ties — the namespace
    /// *universe* around a point, for callers whose replicated metadata
    /// knows ids regardless of current liveness (replica selection).
    #[must_use]
    pub fn around(&self, key: Id, k: usize, ids: &[Id]) -> Vec<NodeIdx> {
        let n = self.keys.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        // A window of k ranks on each side of the insertion point covers
        // every possible ring-distance winner.
        let split = self.keys.partition_point(|&x| x < key.0);
        let take = (2 * k + 1).min(n);
        let mut cands: Vec<NodeIdx> = (0..take)
            .map(|i| {
                let rank = (split + n - k.min(n) + i) % n;
                self.nodes[rank]
            })
            .collect();
        cands.sort_unstable();
        cands.dedup();
        cands.sort_by(|&a, &b| {
            let (da, db) = (ids[a.idx()].ring_dist(key), ids[b.idx()].ring_dist(key));
            da.cmp(&db).then(ids[a.idx()].0.cmp(&ids[b.idx()].0))
        });
        cands.truncate(k);
        cands
    }

    /// Every endsystem (member or not) whose id falls in `r`, ascending
    /// by id with the wrap seam at the namespace top — byte-for-byte the
    /// enumeration order of the former `BTreeMap` range scans, without
    /// materializing a `Vec`.
    pub fn all_in_range(&self, r: &IdRange) -> impl Iterator<Item = NodeIdx> + '_ {
        // Two half-open rank windows: [a, b) then [c, d).
        let (a, b, c, d) = if r.is_empty() {
            (0, 0, 0, 0)
        } else if r.is_full() {
            (0, self.keys.len(), 0, 0)
        } else {
            let start = r.start().0;
            let end = start.wrapping_add(r.width().expect("not full")); // exclusive
            let lo = self.keys.partition_point(|&k| k < start);
            let hi = self.keys.partition_point(|&k| k < end);
            if start < end {
                (lo, hi, 0, 0)
            } else {
                (lo, self.keys.len(), 0, hi)
            }
        };
        self.nodes[a..b]
            .iter()
            .chain(self.nodes[c..d].iter())
            .copied()
    }
}

/// Ring distance of the exactly-opposite point.
const ANTIPODE: u128 = 1 << 127;

type CwRanks<'a> = std::iter::Chain<SetRanksFwd<'a>, SetRanksFwd<'a>>;
type CcwRanks<'a> = std::iter::Chain<SetRanksRev<'a>, SetRanksRev<'a>>;

/// [`RingIndex::nearest_live`]'s walk.
pub struct NearestLive<'a> {
    index: &'a RingIndex,
    id: Id,
    exact: Option<NodeIdx>,
    cw: CwRanks<'a>,
    ccw: CcwRanks<'a>,
    /// Next member of each walk as `(distance, rank)`; `None` once the
    /// walk has left its half of the ring.
    cw_head: Option<(u128, usize)>,
    ccw_head: Option<(u128, usize)>,
}

impl std::fmt::Debug for NearestLive<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NearestLive").field("id", &self.id).finish()
    }
}

impl NearestLive<'_> {
    fn advance_cw(&mut self) {
        self.cw_head = self.cw.next().and_then(|rank| {
            let d = self.id.cw_dist(Id(self.index.keys[rank]));
            (d <= ANTIPODE).then_some((d, rank))
        });
    }

    fn advance_ccw(&mut self) {
        self.ccw_head = self.ccw.next().and_then(|rank| {
            let d = self.id.ccw_dist(Id(self.index.keys[rank]));
            (d < ANTIPODE).then_some((d, rank))
        });
    }
}

impl Iterator for NearestLive<'_> {
    type Item = NodeIdx;

    fn next(&mut self) -> Option<NodeIdx> {
        if let Some(exact) = self.exact.take() {
            return Some(exact);
        }
        let keys = &self.index.keys;
        let rank = match (self.cw_head, self.ccw_head) {
            (Some((a, ra)), ccw) if ccw.is_none_or(|(b, rb)| (a, keys[ra]) < (b, keys[rb])) => {
                self.advance_cw();
                ra
            }
            (_, Some((_, rb))) => {
                self.advance_ccw();
                rb
            }
            _ => return None,
        };
        Some(self.index.nodes[rank])
    }
}

/// [`RingIndex::served_arc`]'s answer: the ids within `cw_reach`
/// clockwise or `ccw_reach` counter-clockwise of `at`.
#[derive(Clone, Copy, Debug)]
pub struct ServedArc {
    at: Id,
    cw_reach: u128,
    ccw_reach: u128,
}

impl ServedArc {
    #[must_use]
    pub fn contains(&self, id: Id) -> bool {
        self.at.cw_dist(id) <= self.cw_reach || self.at.ccw_dist(id) <= self.ccw_reach
    }
}

/// Set ranks in `[from, to)`, ascending, by word-at-a-time bit scan.
struct SetRanksFwd<'a> {
    words: &'a [u64],
    /// Current word index.
    wi: usize,
    /// Unconsumed bits of `words[wi]` at or after the start cursor.
    cur: u64,
    to: usize,
}

impl<'a> SetRanksFwd<'a> {
    fn new(words: &'a [u64], from: usize, to: usize) -> Self {
        let wi = from / 64;
        let cur = if from < to {
            words[wi] & (u64::MAX << (from % 64))
        } else {
            0
        };
        SetRanksFwd { words, wi, cur, to }
    }
}

impl Iterator for SetRanksFwd<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let rank = self.wi * 64 + self.cur.trailing_zeros() as usize;
                if rank >= self.to {
                    return None;
                }
                self.cur &= self.cur - 1;
                return Some(rank);
            }
            self.wi += 1;
            if self.wi * 64 >= self.to {
                return None;
            }
            self.cur = self.words[self.wi];
        }
    }
}

/// Set ranks in `[from, to)`, descending.
struct SetRanksRev<'a> {
    words: &'a [u64],
    wi: usize,
    /// Unconsumed bits of `words[wi]` at or before the end cursor.
    cur: u64,
    from: usize,
}

impl<'a> SetRanksRev<'a> {
    fn new(words: &'a [u64], from: usize, to: usize) -> Self {
        if from >= to {
            return SetRanksRev {
                words,
                wi: 0,
                cur: 0,
                from: usize::MAX,
            };
        }
        let last = to - 1;
        let wi = last / 64;
        let keep = last % 64;
        let mask = if keep == 63 {
            u64::MAX
        } else {
            (1u64 << (keep + 1)) - 1
        };
        SetRanksRev {
            words,
            wi,
            cur: words[wi] & mask,
            from,
        }
    }
}

impl Iterator for SetRanksRev<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.from == usize::MAX {
            return None;
        }
        loop {
            if self.cur != 0 {
                let bit = 63 - self.cur.leading_zeros() as usize;
                let rank = self.wi * 64 + bit;
                if rank < self.from {
                    return None;
                }
                self.cur &= !(1u64 << bit);
                return Some(rank);
            }
            if self.wi == 0 || self.wi * 64 <= self.from {
                return None;
            }
            self.wi -= 1;
            self.cur = self.words[self.wi];
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// A universe plus the map model, with a pseudorandom subset live.
    fn world(n: usize, seed: u64) -> (Vec<Id>, RingIndex, BTreeMap<u128, NodeIdx>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<Id> = (0..n).map(|_| Id::random(&mut rng)).collect();
        let mut index = RingIndex::new(&ids);
        let mut map = BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            if rng.gen_bool(0.7) {
                index.insert(NodeIdx(i as u32));
                map.insert(id.0, NodeIdx(i as u32));
            }
        }
        (ids, index, map)
    }

    /// The map model's clockwise walk.
    fn map_cw(map: &BTreeMap<u128, NodeIdx>, id: Id) -> Vec<NodeIdx> {
        map.range((id.0.wrapping_add(1))..)
            .chain(map.range(..=id.0))
            .map(|(_, &n)| n)
            .collect()
    }

    fn map_ccw(map: &BTreeMap<u128, NodeIdx>, id: Id) -> Vec<NodeIdx> {
        map.range(..id.0)
            .rev()
            .chain(map.range(id.0..).rev())
            .map(|(_, &n)| n)
            .collect()
    }

    #[test]
    fn live_walks_match_map_model() {
        for seed in 0..8 {
            let (ids, index, map) = world(64, seed);
            let mut probes: Vec<Id> = ids.iter().step_by(7).copied().collect();
            probes.extend([Id(0), Id(1), Id(u128::MAX - 1)]);
            for id in probes {
                let cw: Vec<NodeIdx> = index.cw_live_from(id).collect();
                assert_eq!(cw, map_cw(&map, id), "cw from {id:?} seed {seed}");
                let ccw: Vec<NodeIdx> = index.ccw_live_from(id).collect();
                assert_eq!(ccw, map_ccw(&map, id), "ccw from {id:?} seed {seed}");
                assert_eq!(index.get_live(id.0), map.get(&id.0).copied());
            }
        }
    }

    #[test]
    fn membership_updates_track_live_count() {
        let ids: Vec<Id> = (0..10u128).map(|v| Id(v * 1000)).collect();
        let mut index = RingIndex::new(&ids);
        assert_eq!(index.live_count(), 0);
        index.insert(NodeIdx(3));
        index.insert(NodeIdx(3)); // idempotent
        index.insert(NodeIdx(7));
        assert_eq!(index.live_count(), 2);
        assert_eq!(index.get_live(3000), Some(NodeIdx(3)));
        index.remove(NodeIdx(3));
        index.remove(NodeIdx(3)); // idempotent
        assert_eq!(index.live_count(), 1);
        assert_eq!(index.get_live(3000), None);
    }

    #[test]
    #[should_panic(expected = "endsystem ids must be unique")]
    fn duplicate_ids_panic() {
        let _ = RingIndex::new(&[Id(1), Id(2), Id(1)]);
    }

    /// Naive baseline for range enumeration: linear filter in universe
    /// (sorted-with-wrap-seam) order.
    fn naive_in_range(ids: &[Id], r: &IdRange) -> Vec<NodeIdx> {
        let mut ranked: Vec<(u128, u32)> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.0, i as u32))
            .collect();
        ranked.sort_unstable();
        let start = if r.is_full() { 0 } else { r.start().0 };
        let seam = ranked.iter().position(|&(k, _)| k >= start).unwrap_or(0);
        ranked.rotate_left(seam);
        ranked
            .into_iter()
            .filter(|&(k, _)| r.contains(Id(k)))
            .map(|(_, i)| NodeIdx(i))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `all_in_range` vs the naive linear filter across wrapping
        /// ranges, with the edge widths the dissemination splitter
        /// produces: width-1 slivers, the full circle, and ranges whose
        /// exclusive end wraps to exactly 0.
        #[test]
        fn all_in_range_matches_naive(seed in 0u64..1_000, start in any::<u128>(), width in any::<u128>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ids: Vec<Id> = (0..33).map(|_| Id::random(&mut rng)).collect();
            let index = RingIndex::new(&ids);
            let ranges = [
                IdRange::new(Id(start), width),
                IdRange::new(Id(start), 1),
                IdRange::FULL,
                IdRange::EMPTY,
                // Exclusive end exactly 0 (wraps the seam).
                IdRange::new(Id(start), start.wrapping_neg().max(1)),
                IdRange::between(Id(u128::MAX), Id(1)),
            ];
            for r in ranges {
                let got: Vec<NodeIdx> = index.all_in_range(&r).collect();
                prop_assert_eq!(got, naive_in_range(&ids, &r), "range {}", r);
            }
        }
    }
}

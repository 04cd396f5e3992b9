//! Reference model for the replica-set questions.
//!
//! The overlay answers "who is ring-closest to this id, nearest first?"
//! and "whose replica set is this node in?" straight from the ring
//! index, and merges a node's two leafset halves into its replica set
//! without sorting. The models here are the code those replaced — build
//! the candidate `Vec` from two capped ring walks, or from the
//! deduplicated halves, and `sort_by` `(ring distance, id)` — kept only
//! in this file.
//!
//! Ids come from 32 evenly spaced points (and their immediate
//! neighbours), so that exact-id hits, equidistant pairs, the
//! exactly-opposite point, the wrap through zero, rings with `live ≤ k`
//! and with 0, 1 or 2 members, and an `x` that is not a member all turn
//! up in every few cases.
//!
//! Two mutations of `crates/overlay/src/ring.rs` known to fail
//! `ring_questions_match_the_sorted_vec` (each applied alone, seed as
//! checked in):
//!
//! * drop the smaller-id tie-break from `NearestLive::next` (compare the
//!   two heads by distance only) — an equidistant pair comes out in walk
//!   order;
//! * give the exactly-opposite member to both walks (`d <= ANTIPODE` in
//!   `advance_ccw`) — it comes out twice.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_overlay::{LeafHalf, NodeState, RingIndex};
use seaweed_sim::NodeIdx;
use seaweed_types::Id;

const POINTS: u128 = 32;

fn point(p: u128) -> Id {
    Id((p % POINTS) << 123)
}

/// A universe of distinct points with a random subset live.
fn ring(rng: &mut StdRng) -> (Vec<Id>, RingIndex, Vec<bool>) {
    let keep = f64::from(rng.gen_range(0..=8u32)) / 8.0;
    let ids: Vec<Id> = (0..POINTS)
        .filter(|_| rng.gen_bool(keep))
        .map(point)
        .collect();
    let mut index = RingIndex::new(&ids);
    let density = [0.0, 0.1, 0.5, 0.9, 1.0][rng.gen_range(0..5)];
    let live: Vec<bool> = ids.iter().map(|_| rng.gen_bool(density)).collect();
    for (i, _) in live.iter().enumerate().filter(|(_, &up)| up) {
        index.insert(NodeIdx(i as u32));
    }
    (ids, index, live)
}

fn by_distance(ids: &[Id], id: Id) -> impl Fn(&NodeIdx, &NodeIdx) -> std::cmp::Ordering + '_ {
    move |&a, &b| {
        let (da, db) = (ids[a.idx()].ring_dist(id), ids[b.idx()].ring_dist(id));
        da.cmp(&db).then(ids[a.idx()].0.cmp(&ids[b.idx()].0))
    }
}

/// The former `Overlay::ring_neighbors`: the nearest `count` live nodes
/// from `id` in one direction, skipping an exact-id match.
fn ring_neighbors(
    ids: &[Id],
    walk: impl Iterator<Item = NodeIdx>,
    id: Id,
    count: usize,
) -> Vec<NodeIdx> {
    walk.filter(|n| ids[n.idx()] != id).take(count).collect()
}

/// The former `Overlay::replica_set_oracle`, verbatim over the index's
/// two walks.
fn replica_set_oracle(ids: &[Id], index: &RingIndex, id: Id, k: usize) -> Vec<NodeIdx> {
    let half = k.div_ceil(2) + 1;
    let mut cands = ring_neighbors(ids, index.cw_live_from(id), id, half + k);
    for m in ring_neighbors(ids, index.ccw_live_from(id), id, half + k) {
        if !cands.contains(&m) {
            cands.push(m);
        }
    }
    if let Some(exact) = index.get_live(id.0) {
        if !cands.contains(&exact) {
            cands.push(exact);
        }
    }
    cands.sort_by(by_distance(ids, id));
    cands.truncate(k);
    cands
}

/// The former `Overlay::replica_set`: the deduplicated halves, sorted.
fn replica_set_sorted(ids: &[Id], st: &NodeState, k: usize) -> Vec<NodeIdx> {
    let mut members: Vec<NodeIdx> = st.members().collect();
    members.sort_by(by_distance(ids, st.id));
    members.truncate(k);
    members
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_questions_match_the_sorted_vec(seed in 0u64..1_000_000, k in 1usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (ids, index, live) = ring(&mut rng);
        let arcs: Vec<_> = (0..ids.len())
            .map(|x| index.served_arc(NodeIdx(x as u32), k))
            .collect();
        for (x, arc) in arcs.iter().enumerate() {
            prop_assert_eq!(arc.is_some(), live[x], "a non-member serves nothing");
        }
        for p in 0..POINTS {
            for id in [point(p), point(p).wrapping_add(1), point(p).wrapping_sub(1)] {
                let want = replica_set_oracle(&ids, &index, id, k);
                let got: Vec<NodeIdx> = index.nearest_live(id).take(k).collect();
                prop_assert_eq!(&got, &want, "nearest {} of {:?}", k, id);
                for (x, arc) in arcs.iter().enumerate() {
                    prop_assert_eq!(
                        arc.is_some_and(|a| a.contains(id)),
                        want.contains(&NodeIdx(x as u32)),
                        "is node {} among the {} nearest of {:?}", x, k, id
                    );
                }
            }
        }
        // Uncapped, the walk is every member exactly once.
        let mut all: Vec<NodeIdx> = index.nearest_live(point(seed.into())).collect();
        all.sort_unstable();
        let members = (0..ids.len()).filter(|&i| live[i]).map(|i| NodeIdx(i as u32));
        prop_assert_eq!(all, members.collect::<Vec<_>>());
    }

    /// Each half holds the nearest few in its own direction of what the
    /// node happens to have heard of *for that half* — a stale view, in
    /// which a node beyond the exactly-opposite point can sit in one
    /// half, the other, or both.
    #[test]
    fn merged_halves_match_the_sorted_members(seed in 0u64..1_000_000, half in 1usize..=8, k in 1usize..=16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<Id> = (0..POINTS).map(point).collect();
        let me = rng.gen_range(0..POINTS) as usize;
        let mut st = NodeState::new(ids[me], 32, 16);
        let known = f64::from(rng.gen_range(0..=8u32)) / 8.0;
        let mut fill = |dist: fn(Id, Id) -> u128| {
            let mut heard: Vec<NodeIdx> = (0..ids.len())
                .filter(|&i| i != me && rng.gen_bool(known))
                .map(|i| NodeIdx(i as u32))
                .collect();
            heard.sort_by_key(|n| dist(ids[me], ids[n.idx()]));
            heard.into_iter().take(half).collect::<LeafHalf>()
        };
        st.cw = fill(Id::cw_dist);
        st.ccw = fill(Id::ccw_dist);
        let got: Vec<NodeIdx> = st.nearest_members(&ids).take(k).collect();
        prop_assert_eq!(got, replica_set_sorted(&ids, &st, k), "cw {:?} ccw {:?}", st.cw, st.ccw);
    }
}

//! Model equivalence for the leafset merge, plus the reverse-index
//! invariant and the push-buffer recycling rules.
//!
//! The overlay merges a heard-of node into fixed-capacity inline halves
//! and touches the reverse index only when a half changed. The model
//! here is the logic it replaced — `Vec` halves, decide-after-collecting
//! — kept only in this file: every `Announce` and `LeafsetPush` the
//! engine delivers is first applied to the model on a snapshot of the
//! receiver's halves, then to the real overlay, and the two must agree
//! on the halves and on the `NeighborJoined` events, in order. Rings of
//! 1–40 nodes with l ∈ {2, 4, 8, 16} cover the small-ring regime where
//! one node sits in *both* halves.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_overlay::{
    is_overlay_tag, Overlay, OverlayConfig, OverlayEvent, OverlayMsg, SPARE_PUSH_MAX,
};
use seaweed_sim::{Engine, Event, FaultPlan, NodeIdx, PartitionSpec, SimConfig, UniformTopology};
use seaweed_types::{Duration, Id, Time};

type Eng = Engine<OverlayMsg<u64>>;

// ------------------------------------------------------------ the model

/// The pre-inline `leafset_insert`, verbatim but for the reverse-index
/// bookkeeping (checked separately, as an invariant): insert `x` into
/// `n`'s halves if it is among the `half` nearest on either side.
fn model_insert(
    ids: &[Id],
    half: usize,
    n: NodeIdx,
    x: NodeIdx,
    cw: &mut Vec<NodeIdx>,
    ccw: &mut Vec<NodeIdx>,
) -> bool {
    if n == x {
        return false;
    }
    let id = ids[n.idx()];
    let xid = ids[x.idx()];
    let mut changed = false;
    if !cw.contains(&x) {
        let pos = cw
            .iter()
            .position(|&m| id.cw_dist(xid) < id.cw_dist(ids[m.idx()]))
            .unwrap_or(cw.len());
        if pos < half {
            cw.insert(pos, x);
            cw.truncate(half);
            changed = true;
        }
    }
    if !ccw.contains(&x) {
        let pos = ccw
            .iter()
            .position(|&m| id.ccw_dist(xid) < id.ccw_dist(ids[m.idx()]))
            .unwrap_or(ccw.len());
        if pos < half {
            ccw.insert(pos, x);
            ccw.truncate(half);
            changed = true;
        }
    }
    changed
}

/// The model's verdict on one merge.
struct Merged {
    before: (Vec<NodeIdx>, Vec<NodeIdx>),
    after: (Vec<NodeIdx>, Vec<NodeIdx>),
    /// `(node, joined)` of the `NeighborJoined` events, in order.
    joined: Vec<(NodeIdx, NodeIdx)>,
}

/// What the pre-inline `Announce` / `LeafsetPush` arms did to `to`'s
/// leafset; `None` for any other message.
fn model_merge(
    eng: &Eng,
    ov: &Overlay,
    from: NodeIdx,
    to: NodeIdx,
    msg: &OverlayMsg<u64>,
) -> Option<Merged> {
    let heard: Vec<NodeIdx> = match msg {
        OverlayMsg::Announce if eng.is_up(from) => vec![from],
        OverlayMsg::Announce => vec![],
        OverlayMsg::LeafsetPush { members } => members
            .iter()
            .copied()
            .filter(|&m| eng.is_up(m) && ov.is_joined(m))
            .collect(),
        _ => return None,
    };
    let (cw, ccw) = ov.leafset_halves(to);
    let before = (cw.to_vec(), ccw.to_vec());
    let (mut cw, mut ccw) = before.clone();
    let mut joined = Vec::new();
    if ov.is_joined(to) {
        let half = ov.config().leafset / 2;
        for m in heard {
            if model_insert(ov.ids(), half, to, m, &mut cw, &mut ccw) {
                joined.push((to, m));
            }
        }
    }
    Some(Merged {
        before,
        after: (cw, ccw),
        joined,
    })
}

// -------------------------------------------------------- the invariant

/// `m ∈ leafset(n) ⇔ n ∈ listed_by[m]`, each reverse list strictly
/// ascending, and each half duplicate-free and within l/2.
fn check_reverse_index(ov: &Overlay, n_nodes: usize) -> Result<(), String> {
    let half = ov.config().leafset / 2;
    for i in 0..n_nodes as u32 {
        let n = NodeIdx(i);
        let (cw, ccw) = ov.leafset_halves(n);
        for h in [cw, ccw] {
            if h.len() > half || h.contains(&n) {
                return Err(format!("node {i}: malformed half {h:?}"));
            }
            if (1..h.len()).any(|k| h[..k].contains(&h[k])) {
                return Err(format!("node {i}: duplicate within a half {h:?}"));
            }
            for m in h {
                if !ov.listed_by(*m).contains(&i) {
                    return Err(format!("{m:?} in leafset({i}) but {i} not in listed_by"));
                }
            }
        }
        let watchers = ov.listed_by(n);
        if !watchers.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "listed_by[{i}] not strictly ascending: {watchers:?}"
            ));
        }
        for &w in watchers {
            let (cw, ccw) = ov.leafset_halves(NodeIdx(w));
            if !cw.contains(&n) && !ccw.contains(&n) {
                return Err(format!("{w} in listed_by[{i}] but {i} not in leafset({w})"));
            }
        }
    }
    Ok(())
}

// ------------------------------------------------------------ the drive

/// What a run exercised; the fixed-seed test below asserts the schedule
/// generator reaches the cases the model exists for.
#[derive(Debug, Default)]
struct Coverage {
    announce_changes: u64,
    push_changes: u64,
    /// Merges after which one node sat in both halves.
    both_halves: u64,
    /// Merges that pushed a member off the far end of a half.
    evictions: u64,
    pushes_sent: u64,
    pushes_delivered: u64,
    max_spare: usize,
}

/// Runs engine + overlay to `horizon`, checking every merge against the
/// model and the reverse-index invariant after every event.
fn drive_checked(
    eng: &mut Eng,
    ov: &mut Overlay,
    n_nodes: usize,
    horizon: Time,
    cov: &mut Coverage,
) -> Result<(), String> {
    // Member lists each Pull handler put on the wire, per (sender,
    // receiver) of the push: every delivered copy must be one of them.
    let mut sent: BTreeMap<(u32, u32), Vec<Vec<NodeIdx>>> = BTreeMap::new();
    while let Some((_, ev)) = eng.next_event_before(horizon) {
        match ev {
            Event::Message { from, to, payload } => {
                let msg = payload.into_owned();
                let expected = model_merge(eng, ov, from, to, &msg);
                let is_pull = matches!(msg, OverlayMsg::LeafsetPull);
                if let OverlayMsg::LeafsetPush { members } = &msg {
                    let lists = sent.get(&(from.0, to.0)).map_or(&[][..], Vec::as_slice);
                    if !lists.contains(members) {
                        return Err(format!(
                            "push {from:?}->{to:?} delivered {members:?}, never sent (sent: {lists:?})"
                        ));
                    }
                    cov.pushes_delivered += 1;
                }
                let is_push = matches!(msg, OverlayMsg::LeafsetPush { .. });
                let events = ov.on_message(eng, from, to, msg);
                if is_pull {
                    // The push just sent carries the handler's dedup'd view.
                    let lists = sent.entry((to.0, from.0)).or_default();
                    lists.push(ov.leafset_members(to));
                    cov.pushes_sent += 1;
                }
                if let Some(model) = expected {
                    let got: Vec<(NodeIdx, NodeIdx)> = events
                        .iter()
                        .map(|e| match e {
                            OverlayEvent::NeighborJoined { node, joined } => (*node, *joined),
                            other => panic!("merge surfaced {other:?}"),
                        })
                        .collect();
                    let (cw, ccw) = &model.after;
                    let (real_cw, real_ccw) = ov.leafset_halves(to);
                    if real_cw != cw || real_ccw != ccw || got != model.joined {
                        return Err(format!(
                            "merge at {to:?} diverged from the model:\n  model {cw:?} / {ccw:?} {:?}\n  real  {real_cw:?} / {real_ccw:?} {got:?}",
                            model.joined
                        ));
                    }
                    if !model.joined.is_empty() {
                        if is_push {
                            cov.push_changes += 1;
                        } else {
                            cov.announce_changes += 1;
                        }
                        if cw.iter().any(|m| ccw.contains(m)) {
                            cov.both_halves += 1;
                        }
                        let (old_cw, old_ccw) = &model.before;
                        if old_cw.iter().any(|m| !cw.contains(m))
                            || old_ccw.iter().any(|m| !ccw.contains(m))
                        {
                            cov.evictions += 1;
                        }
                    }
                }
            }
            Event::Timer { node, tag } if is_overlay_tag(tag) => {
                let _ = ov.on_timer(eng, node, tag);
            }
            Event::Timer { .. } => {}
            Event::NodeUp { node } => {
                let _ = ov.node_up(eng, node);
            }
            Event::NodeDown { node } | Event::NodeCrash { node } => ov.node_down(eng, node),
            Event::PartitionStart { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_started(eng, &members);
            }
            Event::PartitionEnd { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_healed(eng, &members);
            }
        }
        check_reverse_index(ov, n_nodes)?;
        let spare = ov.spare_push_buffers();
        cov.max_spare = cov.max_spare.max(spare);
        if spare > SPARE_PUSH_MAX {
            return Err(format!(
                "spare list holds {spare} buffers, bound is {SPARE_PUSH_MAX}"
            ));
        }
    }
    Ok(())
}

/// One random schedule: staggered (sometimes simultaneous) joins, churn,
/// one partition window, message loss, duplication and reordering.
fn run_schedule(n: usize, leafset: usize, seed: u64, dup_rate: f64) -> Result<Coverage, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1eaf_5e70);
    let cut: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.4)).collect();
    let faults = FaultPlan {
        partitions: vec![PartitionSpec {
            members: cut,
            from: Time::from_secs(900),
            until: Time::from_secs(1_200),
        }],
        dup_rate,
        reorder_window: Duration::from_millis(rng.gen_range(0..40)),
        ..FaultPlan::default()
    };
    let mut eng: Eng = Engine::new(
        Box::new(UniformTopology::new(n, Duration::from_millis(4))),
        SimConfig {
            seed,
            // Lost Announces leave the asymmetric views anti-entropy
            // pushes exist to repair.
            loss_rate: 0.1,
            faults: Some(faults),
            ..SimConfig::default()
        },
    );
    let mut ov = Overlay::new(
        Overlay::random_ids(n, seed),
        OverlayConfig {
            seed,
            leafset,
            ..OverlayConfig::default()
        },
    );
    let mut t = 1u64;
    for i in 0..n {
        eng.schedule_up(Time::from_micros(t), NodeIdx(i as u32));
        t += rng.gen_range(0..3) * 500_000;
    }
    let mut up = vec![true; n];
    let mut at = Time::from_secs(120);
    for _ in 0..30 {
        at += Duration::from_secs(rng.gen_range(5..90));
        let node = rng.gen_range(0..n);
        if up[node] {
            eng.schedule_down(at, NodeIdx(node as u32));
        } else {
            eng.schedule_up(at, NodeIdx(node as u32));
        }
        up[node] = !up[node];
    }
    let mut cov = Coverage::default();
    drive_checked(
        &mut eng,
        &mut ov,
        n,
        at.max(Time::from_secs(1_200)) + Duration::from_mins(10),
        &mut cov,
    )?;
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_matches_the_pre_inline_model(
        n in 1usize..41,
        leafset in prop::sample::select(vec![2usize, 4, 8, 8, 16]),
        seed in 0u64..1_000_000,
        dup_rate in prop::sample::select(vec![0.0f64, 0.3, 1.0]),
    ) {
        if let Err(e) = run_schedule(n, leafset, seed, dup_rate) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The generator reaches what the model is for: merges that change a
/// leafset from both message kinds, members evicted off a full half, and
/// small rings where one node sits in both halves.
#[test]
fn schedules_cover_the_interesting_merges() {
    let mut total = Coverage::default();
    for (n, leafset, seed) in [(3, 8, 1), (5, 8, 2), (12, 4, 3), (40, 8, 4), (25, 2, 5)] {
        let cov = run_schedule(n, leafset, seed, 0.3).expect("model agrees");
        total.announce_changes += cov.announce_changes;
        total.push_changes += cov.push_changes;
        total.both_halves += cov.both_halves;
        total.evictions += cov.evictions;
    }
    assert!(total.announce_changes > 0, "{total:?}");
    assert!(total.push_changes > 0, "{total:?}");
    assert!(total.both_halves > 0, "{total:?}");
    assert!(total.evictions > 0, "{total:?}");
}

/// Duplication rate 1.0: the engine delivers every message twice from one
/// shared allocation. Each copy of a `LeafsetPush` must still read the
/// member list its Pull handler sent — the first copy's buffer going back
/// to the spare list (and out again with the next push) must never be the
/// allocation the second copy reads — and although every exchange now
/// returns two buffers for the one it took, the spare list stays within
/// its bound through the partition-heal burst.
#[test]
fn duplicated_pushes_never_alias_a_recycled_buffer() {
    let cov = run_schedule(40, 8, 9, 1.0).expect("every delivered push was one that was sent");
    assert!(
        cov.pushes_delivered > cov.pushes_sent,
        "duplication must have delivered extra copies: {cov:?}"
    );
    assert_eq!(
        cov.max_spare, SPARE_PUSH_MAX,
        "two buffers return per exchange: the bound must have been reached"
    );
}

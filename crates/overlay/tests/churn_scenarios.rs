//! Randomized churn scenarios for the overlay: across many seeds, after
//! churn settles, membership views converge to ground truth and routing
//! still lands on the oracle root.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_overlay::{is_overlay_tag, Overlay, OverlayConfig, OverlayEvent, OverlayMsg};
use seaweed_sim::{Engine, Event, NodeIdx, SimConfig, UniformTopology};
use seaweed_types::{Duration, Id, Time};

type Eng = Engine<OverlayMsg<u64>>;

fn drive(eng: &mut Eng, ov: &mut Overlay, horizon: Time) -> Vec<OverlayEvent<u64>> {
    let mut out = Vec::new();
    while let Some((_, ev)) = eng.next_event_before(horizon) {
        match ev {
            Event::Message { from, to, payload } => {
                out.extend(ov.on_message(eng, from, to, payload.into_owned()))
            }
            Event::Timer { node, tag } if is_overlay_tag(tag) => {
                out.extend(ov.on_timer(eng, node, tag))
            }
            Event::Timer { .. } => {}
            Event::NodeUp { node } => out.extend(ov.node_up(eng, node)),
            Event::NodeDown { node } => ov.node_down(eng, node),
            Event::NodeCrash { node } => ov.node_down(eng, node),
            Event::PartitionStart { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_started(eng, &members);
            }
            Event::PartitionEnd { partition } => {
                let members = eng.partition_members(partition);
                ov.partition_healed(eng, &members);
            }
        }
    }
    out
}

#[test]
fn randomized_churn_converges_across_seeds() {
    for seed in 0..8u64 {
        let n = 50;
        let mut eng: Eng = Engine::new(
            Box::new(UniformTopology::new(n, Duration::from_millis(4))),
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        let mut ov = Overlay::new(
            Overlay::random_ids(n, seed),
            OverlayConfig {
                seed,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0);

        // Bring everyone up.
        for i in 0..n {
            eng.schedule_up(Time::from_micros(1 + i as u64 * 200_000), NodeIdx(i as u32));
        }
        drive(&mut eng, &mut ov, Time::ZERO + Duration::from_mins(10));

        // Random churn: 40 events over an hour, keeping at least half up.
        let mut up = vec![true; n];
        let mut t = eng.now();
        for _ in 0..40 {
            t += Duration::from_secs(rng.gen_range(30..120));
            let node = rng.gen_range(0..n);
            if up[node] {
                if up.iter().filter(|&&u| u).count() > n / 2 {
                    up[node] = false;
                    eng.schedule_down(t, NodeIdx(node as u32));
                }
            } else {
                up[node] = true;
                eng.schedule_up(t, NodeIdx(node as u32));
            }
        }
        // Let everything settle well past the failure-detection window.
        drive(&mut eng, &mut ov, t + Duration::from_mins(10));

        // Survivors' leafsets contain their true live ring neighbors.
        let live: Vec<usize> = (0..n).filter(|&i| eng.is_up(NodeIdx(i as u32))).collect();
        assert!(live.len() >= n / 2);
        let mut order = live.clone();
        order.sort_by_key(|&i| ov.ids()[i].0);
        for (pos, &i) in order.iter().enumerate() {
            let succ = NodeIdx(order[(pos + 1) % order.len()] as u32);
            let pred = NodeIdx(order[(pos + order.len() - 1) % order.len()] as u32);
            let members = ov.leafset_members(NodeIdx(i as u32));
            assert!(
                members.contains(&succ) && members.contains(&pred),
                "seed {seed}: node {i} leafset diverged after churn"
            );
            // And contains no dead nodes.
            for m in members {
                assert!(eng.is_up(m), "seed {seed}: node {i} still lists dead {m:?}");
            }
        }

        // Routing from random live nodes lands on oracle roots.
        for trial in 0..20 {
            let key = Id::random(&mut rng);
            let from = NodeIdx(live[rng.gen_range(0..live.len())] as u32);
            let mut evs = ov.route(&mut eng, from, key, trial, 64);
            let horizon = eng.now() + Duration::from_mins(2);
            evs.extend(drive(&mut eng, &mut ov, horizon));
            let delivered: Vec<NodeIdx> = evs
                .iter()
                .filter_map(|e| match e {
                    OverlayEvent::Deliver { node, key: k, .. } if *k == key => Some(*node),
                    _ => None,
                })
                .collect();
            assert_eq!(delivered.len(), 1, "seed {seed} trial {trial}");
            assert_eq!(
                Some(delivered[0]),
                ov.oracle_root(key),
                "seed {seed} trial {trial}"
            );
        }
    }
}

#[test]
fn total_churn_then_recovery() {
    // Every node dies; a fresh cohort joins; the overlay must rebuild
    // from scratch around the survivors of the second wave.
    let n = 24;
    let seed = 3;
    let mut eng: Eng = Engine::new(
        Box::new(UniformTopology::new(n, Duration::from_millis(4))),
        SimConfig {
            seed,
            ..Default::default()
        },
    );
    let mut ov = Overlay::new(
        Overlay::random_ids(n, seed),
        OverlayConfig {
            seed,
            ..Default::default()
        },
    );
    // First half up.
    for i in 0..n / 2 {
        eng.schedule_up(Time::from_micros(1 + i as u64 * 100_000), NodeIdx(i as u32));
    }
    drive(&mut eng, &mut ov, Time::ZERO + Duration::from_mins(5));
    assert_eq!(ov.num_joined(), n / 2);

    // First half dies while second half arrives.
    let t0 = eng.now();
    for i in 0..n / 2 {
        eng.schedule_down(t0 + Duration::from_secs(10 + i as u64), NodeIdx(i as u32));
        eng.schedule_up(
            t0 + Duration::from_secs(5 + i as u64),
            NodeIdx((n / 2 + i) as u32),
        );
    }
    drive(&mut eng, &mut ov, t0 + Duration::from_mins(10));
    assert_eq!(ov.num_joined(), n / 2, "second cohort fully joined");
    for i in n / 2..n {
        assert!(
            ov.is_joined(NodeIdx(i as u32)),
            "node {i} failed to join during the swap"
        );
    }
}

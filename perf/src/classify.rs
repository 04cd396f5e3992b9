//! The event classifier: which layer does the work an engine event
//! causes. Decided from the public event/message enums *before* the
//! event is dispatched, so attribution needs nothing from inside the
//! program. Every `match` is exhaustive — a new `Event`, `OverlayMsg` or
//! `SeaweedMsg` variant fails to compile here instead of landing in an
//! "other" bucket.

use seaweed_core::SeaweedMsg;
use seaweed_overlay::{is_overlay_tag, OverlayMsg};
use seaweed_sim::{Event, NodeIdx};
use seaweed_types::Id;

/// A ledger row. `SimPop`, `SimExec` and the two `Store*` classes are
/// not event classes: they are spans the drive loop and the timed
/// provider/shard wrappers record around an event's dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `Engine::next_event_before`: queue pop, delivery bookkeeping.
    SimPop,
    /// Partitioned executor outside dispatch: windows, inboxes, barrier.
    SimExec,
    OverlayJoin,
    OverlayLeafset,
    /// A routed message at an intermediate hop (final hops are charged
    /// to the payload's class: the application handler runs there).
    OverlayRoute,
    OverlayTimer,
    CoreMetadata,
    CoreDisseminate,
    CoreResults,
    CoreQuerylist,
    /// Application timers. The tag → action table is private to `core`,
    /// so metadata-push, local-execution and retry timers share a row.
    CoreTimer,
    ChurnNode,
    StoreExecute,
    StoreEstimate,
}

impl Class {
    pub const ALL: [Class; 14] = [
        Class::SimPop,
        Class::SimExec,
        Class::OverlayJoin,
        Class::OverlayLeafset,
        Class::OverlayRoute,
        Class::OverlayTimer,
        Class::CoreMetadata,
        Class::CoreDisseminate,
        Class::CoreResults,
        Class::CoreQuerylist,
        Class::CoreTimer,
        Class::ChurnNode,
        Class::StoreExecute,
        Class::StoreEstimate,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::SimPop => "sim.pop",
            Class::SimExec => "sim.exec",
            Class::OverlayJoin => "overlay.join",
            Class::OverlayLeafset => "overlay.leafset",
            Class::OverlayRoute => "overlay.route",
            Class::OverlayTimer => "overlay.timer",
            Class::CoreMetadata => "core.metadata",
            Class::CoreDisseminate => "core.disseminate",
            Class::CoreResults => "core.results",
            Class::CoreQuerylist => "core.querylist",
            Class::CoreTimer => "core.timer",
            Class::ChurnNode => "churn.node",
            Class::StoreExecute => "store.execute",
            Class::StoreEstimate => "store.estimate",
        }
    }

    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Class of an application payload, wherever it is handled.
#[must_use]
pub fn classify_app(msg: &SeaweedMsg) -> Class {
    match msg {
        SeaweedMsg::MetaPush { .. } => Class::CoreMetadata,
        SeaweedMsg::Disseminate { .. }
        | SeaweedMsg::PredictorReport { .. }
        | SeaweedMsg::PredictorToOrigin { .. }
        | SeaweedMsg::ViewReport { .. }
        | SeaweedMsg::ViewToOrigin { .. } => Class::CoreDisseminate,
        SeaweedMsg::ResultSubmit { .. }
        | SeaweedMsg::ResultAck { .. }
        | SeaweedMsg::VertexReplicate { .. }
        | SeaweedMsg::ResultToOrigin { .. } => Class::CoreResults,
        SeaweedMsg::QueryListPull | SeaweedMsg::QueryListPush { .. } => Class::CoreQuerylist,
    }
}

/// Class of an overlay message arriving at `to`. `is_final_hop(key, to)`
/// says whether `to` is the live node responsible for `key`, i.e. the
/// routed payload is delivered to the application here.
#[must_use]
pub fn classify_msg(
    msg: &OverlayMsg<SeaweedMsg>,
    to: NodeIdx,
    is_final_hop: impl FnOnce(Id, NodeIdx) -> bool,
) -> Class {
    match msg {
        OverlayMsg::JoinRequest { .. }
        | OverlayMsg::RtRow { .. }
        | OverlayMsg::JoinReply { .. }
        | OverlayMsg::Announce => Class::OverlayJoin,
        OverlayMsg::LeafsetPull | OverlayMsg::LeafsetPush { .. } => Class::OverlayLeafset,
        OverlayMsg::Route { key, payload, .. } => {
            if is_final_hop(*key, to) {
                classify_app(payload)
            } else {
                Class::OverlayRoute
            }
        }
        OverlayMsg::App(payload) => classify_app(payload),
    }
}

/// Class of an engine event.
#[must_use]
pub fn classify(
    ev: &Event<OverlayMsg<SeaweedMsg>>,
    is_final_hop: impl FnOnce(Id, NodeIdx) -> bool,
) -> Class {
    match ev {
        Event::Message { to, payload, .. } => classify_msg(payload, *to, is_final_hop),
        Event::Timer { tag, .. } => {
            if is_overlay_tag(*tag) {
                Class::OverlayTimer
            } else {
                Class::CoreTimer
            }
        }
        // Fault-plan partitions are node-set transitions too; no
        // workload here installs a fault plan.
        Event::NodeUp { .. }
        | Event::NodeDown { .. }
        | Event::NodeCrash { .. }
        | Event::PartitionStart { .. }
        | Event::PartitionEnd { .. } => Class::ChurnNode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_core::Predictor;
    use seaweed_sim::Payload;
    use seaweed_store::{AggFunc, Aggregate};
    use seaweed_types::IdRange;

    type Ev = Event<OverlayMsg<SeaweedMsg>>;

    fn msg(m: OverlayMsg<SeaweedMsg>) -> Ev {
        Event::Message {
            from: NodeIdx(1),
            to: NodeIdx(2),
            payload: Payload::Owned(m),
        }
    }

    fn class_of(ev: &Ev) -> Class {
        classify(ev, |_, _| false)
    }

    fn agg() -> Aggregate {
        Aggregate::empty(AggFunc::Sum)
    }

    #[test]
    fn names_are_unique_and_indices_dense() {
        for (i, c) in Class::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            for d in &Class::ALL[..i] {
                assert_ne!(c.name(), d.name());
            }
        }
    }

    #[test]
    fn overlay_join() {
        for m in [
            OverlayMsg::JoinRequest {
                joiner: NodeIdx(3),
                hops: 0,
            },
            OverlayMsg::RtRow { entries: vec![] },
            OverlayMsg::JoinReply { leafset: vec![] },
            OverlayMsg::Announce,
        ] {
            assert_eq!(class_of(&msg(m)), Class::OverlayJoin);
        }
    }

    #[test]
    fn overlay_leafset() {
        assert_eq!(
            class_of(&msg(OverlayMsg::LeafsetPull)),
            Class::OverlayLeafset
        );
        assert_eq!(
            class_of(&msg(OverlayMsg::LeafsetPush { members: vec![] })),
            Class::OverlayLeafset
        );
    }

    fn routed(payload: SeaweedMsg) -> Ev {
        msg(OverlayMsg::Route {
            key: Id(7),
            origin: NodeIdx(1),
            hops: 1,
            size: 10,
            payload,
        })
    }

    #[test]
    fn overlay_route_is_the_intermediate_hop_only() {
        let submit = || SeaweedMsg::ResultSubmit {
            query: 0,
            vertex: Id(7),
            child: Id(8),
            version: 1,
            agg: agg(),
        };
        assert_eq!(class_of(&routed(submit())), Class::OverlayRoute);
        // At the responsible node the application handler runs.
        let at_root = classify(&routed(submit()), |key, to| {
            key == Id(7) && to == NodeIdx(2)
        });
        assert_eq!(at_root, Class::CoreResults);
        let dissem = SeaweedMsg::Disseminate {
            query: 0,
            range: IdRange::FULL,
            parent: NodeIdx(1),
        };
        assert_eq!(
            classify(&routed(dissem), |_, _| true),
            Class::CoreDisseminate
        );
    }

    #[test]
    fn overlay_timer_and_core_timer_split_on_the_tag_space() {
        let overlay = Event::Timer {
            node: NodeIdx(0),
            tag: 1 << 62,
        };
        let app = Event::Timer {
            node: NodeIdx(0),
            tag: 41,
        };
        // Federation timers (bit 61) are application timers.
        let fed = Event::Timer {
            node: NodeIdx(0),
            tag: seaweed_core::federation::FED_TAG_BASE | 1,
        };
        assert_eq!(class_of(&overlay), Class::OverlayTimer);
        assert_eq!(class_of(&app), Class::CoreTimer);
        assert_eq!(class_of(&fed), Class::CoreTimer);
    }

    #[test]
    fn core_metadata() {
        let m = OverlayMsg::App(SeaweedMsg::MetaPush { owner: NodeIdx(4) });
        assert_eq!(class_of(&msg(m)), Class::CoreMetadata);
    }

    #[test]
    fn core_disseminate() {
        let p = || Box::new(Predictor::new());
        for m in [
            SeaweedMsg::Disseminate {
                query: 0,
                range: IdRange::FULL,
                parent: NodeIdx(1),
            },
            SeaweedMsg::PredictorReport {
                query: 0,
                range: IdRange::FULL,
                predictor: p(),
            },
            SeaweedMsg::PredictorToOrigin {
                query: 0,
                predictor: p(),
            },
            SeaweedMsg::ViewReport {
                query: 0,
                range: IdRange::FULL,
                agg: agg(),
                endsystems: 1,
            },
            SeaweedMsg::ViewToOrigin {
                query: 0,
                agg: agg(),
                endsystems: 1,
            },
        ] {
            assert_eq!(class_of(&msg(OverlayMsg::App(m))), Class::CoreDisseminate);
        }
    }

    #[test]
    fn core_results() {
        for m in [
            SeaweedMsg::ResultSubmit {
                query: 0,
                vertex: Id(1),
                child: Id(2),
                version: 1,
                agg: agg(),
            },
            SeaweedMsg::ResultAck {
                query: 0,
                vertex: Id(1),
                child: Id(2),
                version: 1,
            },
            SeaweedMsg::VertexReplicate {
                query: 0,
                vertex: Id(1),
            },
            SeaweedMsg::ResultToOrigin {
                query: 0,
                agg: agg(),
                version: 1,
            },
        ] {
            assert_eq!(class_of(&msg(OverlayMsg::App(m))), Class::CoreResults);
        }
    }

    #[test]
    fn core_querylist() {
        for m in [
            SeaweedMsg::QueryListPull,
            SeaweedMsg::QueryListPush { queries: vec![0] },
        ] {
            assert_eq!(class_of(&msg(OverlayMsg::App(m))), Class::CoreQuerylist);
        }
    }

    #[test]
    fn churn_node() {
        let n = NodeIdx(5);
        for ev in [
            Event::NodeUp { node: n },
            Event::NodeDown { node: n },
            Event::NodeCrash { node: n },
            Event::PartitionStart { partition: 0 },
            Event::PartitionEnd { partition: 0 },
        ] {
            assert_eq!(class_of(&ev), Class::ChurnNode);
        }
    }
}

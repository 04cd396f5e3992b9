#![deny(missing_debug_implementations)]
//! A deterministic discrete-event network simulator.
//!
//! This is the substrate every packet-level experiment in the paper runs on
//! (§4.3): thousands of endsystems exchanging millisecond-granularity
//! messages over a measured router topology for weeks of simulated time.
//!
//! Design (see DESIGN.md §3):
//!
//! * **Single-threaded and deterministic.** Events are ordered by
//!   `(time, sequence number)`; reruns with the same seed reproduce byte-
//!   identical results. Protocol layers are state machines driven by the
//!   event loop, not threads. (The [`exec`] module scales this out by
//!   running *several* such single-threaded engines over disjoint
//!   endsystem partitions under a conservative synchronization protocol —
//!   each partition remains a sequential DES, and results stay
//!   byte-identical to a serial execution of the same partitioning.)
//! * **Inversion of control stays with the caller.** The engine hands out
//!   events ([`Engine::next_event_before`]); the application dispatches them to its
//!   protocol stacks and calls back into [`Engine::send`] /
//!   [`Engine::set_timer`]. This keeps the engine free of trait gymnastics
//!   and lets layered protocols (Pastry under Seaweed) share one node state.
//! * **Bandwidth accounting built in.** Every message carries a byte size
//!   and a [`TrafficClass`]; the engine meters per-node per-hour tx/rx by
//!   class, streaming samples into the [`bandwidth`] recorder so month-long
//!   20k-node runs stay in memory budget.
//! * **Topology-derived latency.** One-way delays come from a [`topology`]
//!   model: a synthetic world-wide corporate WAN (298 routers, as in the
//!   paper's CorpNet) or a trivial uniform-latency fabric for unit tests.
//! * **Deterministic fault injection.** An optional, seeded [`FaultPlan`]
//!   adds structural partitions, link-degradation windows, crash-amnesia,
//!   correlated outages, duplication and bounded reordering — consulted on
//!   every send and node transition, reproducible bit-for-bit ([`faults`]).

pub mod bandwidth;
pub mod engine;
pub mod event_log;
pub mod exec;
pub mod faults;
pub mod metrics;
pub mod topology;
pub mod trace;

pub use bandwidth::{BandwidthRecorder, BandwidthReport, DropStats, TrafficClass};
pub use engine::{
    payload_cross_partition_clones, payload_fallback_clones, Engine, Event, NodeIdx, Payload,
    SimConfig, TimerHandle,
};
pub use event_log::{fnv1a, EventLog};
pub use exec::{ExecConfig, ExecKind, Outbox, PartitionApp};
pub use faults::{CrashSpec, FaultPlan, LinkFaultSpec, OutageSpec, PartitionSpec};
pub use metrics::{Histogram, MetricsRegistry};
pub use topology::{CorpNetTopology, PartitionMap, SubTopology, Topology, UniformTopology};
pub use trace::{DropCause, TraceConfig, TraceEvent, TraceRecord, Tracer};

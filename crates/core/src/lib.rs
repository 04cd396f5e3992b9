#![deny(missing_debug_implementations)]
//! Seaweed — the delay-aware querying protocols (the paper's core
//! contribution).
//!
//! Seaweed answers one-shot relational aggregate queries over data that
//! stays on the endsystems that produced it. Its pieces, each a module
//! here:
//!
//! * **Metadata replication** (`app/metadata`): every endsystem pushes
//!   a compact data summary (column histograms, `h` bytes) and an
//!   availability model (`a` bytes) to the `k` endsystems with the
//!   closest ids. The replicas answer for it while it is down.
//! * **Query dissemination & completeness prediction**
//!   (`app/disseminate`, [`predictor`]): a query is routed to the root
//!   of its `queryId`, then broadcast by recursive namespace-range
//!   subdivision. Each live endsystem estimates its relevant rows; the
//!   endsystem responsible for a dead range estimates on behalf of the
//!   unavailable endsystems from replicated metadata and predicts their
//!   return times. Constant-size predictors aggregate back up the tree.
//! * **Result aggregation** (`app/results`, [`vertex`]): exact partial
//!   aggregates flow up a per-query tree embedded in the namespace, whose
//!   interior vertices are failure-resilient replica groups providing
//!   exactly-once counting. Results keep arriving as endsystems return —
//!   delay traded for completeness.
//!
//! The protocol layer talks to the data plane through
//! [`provider::DataProvider`] and runs over `seaweed_overlay` on
//! `seaweed_sim`.

pub mod app;
pub mod federation;
pub mod obs;
pub mod oracle;
pub mod predictor;
pub mod provider;
pub mod vertex;
pub mod wire;
pub mod world;

pub use app::{
    HedgeConfig, QueryHandle, QueryKind, QueryState, Seaweed, SeaweedConfig, SeaweedEngine,
    SeaweedMsg, SeaweedStats, StormConfig, Submission, ViewDef, ViewHandle, PUSH_PERIOD,
};
pub use federation::{FedCtl, FedSchedule, FedShard};
pub use obs::{QueryTimeline, SloReport};
pub use oracle::ChaosOracle;
pub use predictor::Predictor;
pub use provider::{DataProvider, LiveTables, Precomputed};
pub use world::{
    boot_staggered, build_world, build_world_with_ids, chaos_sim, chaos_world, flag_fixture,
    inject_chaos_query, run_chaos, ChaosRun, CHAOS_CHECKPOINTS, CHAOS_QUERY, CHAOS_T0,
};

#![deny(missing_debug_implementations)]
//! Common foundation types for the Seaweed delay-aware querying system.
//!
//! This crate holds everything shared by more than one layer of the stack:
//!
//! * [`Id`] — 128-bit identifiers in Pastry's circular namespace, used both
//!   for endsystem ids (`endsystemId`) and object keys (`queryId`,
//!   `vertexId`). Provides base-2^b digit manipulation, ring distance and
//!   prefix arithmetic.
//! * [`IdRange`] — half-open, possibly wrapping ranges of the namespace,
//!   used by the query-dissemination divide-and-conquer protocol.
//! * [`Time`] / [`Duration`] — simulated time in microseconds. Keeping time
//!   here (rather than in the simulator crate) lets availability models and
//!   stores talk about timestamps without depending on the engine.
//! * [`sha1`] — a from-scratch SHA-1, used to derive `queryId`s from query
//!   text exactly as the paper describes. (The allowed dependency set has no
//!   hashing crate; see DESIGN.md.)

pub mod buckets;
pub mod id;
pub mod range;
pub mod sha1;
pub mod time;

pub use buckets::LogBuckets;
pub use id::{Digit, Id, MAX_DIGITS};
pub use range::IdRange;
pub use time::{Duration, Time};

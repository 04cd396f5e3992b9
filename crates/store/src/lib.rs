#![deny(missing_debug_implementations)]
//! A per-endsystem relational engine.
//!
//! Every endsystem in Seaweed runs queries and updates against its own
//! local database (the paper's prototype used SQL Server 2005). This crate
//! is our from-scratch replacement: a small columnar engine with
//!
//! * typed schemas and tables ([`schema`], [`table`]),
//! * a hand-written parser for the paper's SQL subset — single-table
//!   `SELECT <aggregate> FROM <table> WHERE <conjunction>` with `NOW()`
//!   arithmetic ([`sql`]),
//! * aggregate execution with mergeable partial aggregates so results can
//!   be combined in-network ([`exec`]),
//! * equi-depth histograms on indexed columns and histogram-based
//!   row-count estimation ([`histogram`]), and
//! * per-endsystem data summaries — the "h" metadata replicated to the
//!   DHT for completeness prediction ([`summary`]).
//!
//! Queries are *parsed* once at the injection endsystem, *bound* (NOW()
//! resolved, columns checked) against the shared application schema, and
//! then either executed against a live table or estimated against a
//! replicated summary on behalf of an unavailable endsystem.

pub mod error;
pub mod exec;
pub mod histogram;
pub mod schema;
pub mod sql;
pub mod summary;
pub mod table;
pub mod value;

pub use error::StoreError;
pub use exec::{AggFunc, Aggregate};
pub use histogram::{ColumnHistogram, StringHistogram};
pub use schema::{ColumnDef, Schema};
pub use sql::{BoundQuery, CmpOp, Comparison, Query};
pub use summary::DataSummary;
pub use table::Table;
pub use value::{DataType, Value};

#![deny(missing_debug_implementations)]
//! # Seaweed — delay aware querying over highly distributed in-situ data
//!
//! This is the facade crate for a full reproduction of *"Delay Aware
//! Querying with Seaweed"* (Narayanan, Donnelly, Mortier, Rowstron; VLDB
//! 2006). It re-exports every layer of the stack:
//!
//! * [`types`] — ids, namespace ranges, simulated time, SHA-1.
//! * [`sim`] — deterministic discrete-event network simulator + topology.
//! * [`overlay`] — a Pastry structured overlay (MSPastry-style) on the sim.
//! * [`availability`] — endsystem availability traces and models.
//! * [`store`] — a per-endsystem relational engine with histograms and a
//!   SQL subset.
//! * [`workload`] — the Anemone network-monitoring workload (Flow/Packet).
//! * [`core`] — the Seaweed protocols: metadata replication, query
//!   dissemination, completeness prediction, result aggregation.
//! * [`analytic`] — analytic scalability models of Seaweed vs Centralized,
//!   DHT-replicated and PIER baselines.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub mod harness;

pub use seaweed_analytic as analytic;
pub use seaweed_availability as availability;
pub use seaweed_core as core;
pub use seaweed_overlay as overlay;
pub use seaweed_sim as sim;
pub use seaweed_store as store;
pub use seaweed_types as types;
pub use seaweed_workload as workload;

#![deny(missing_debug_implementations)]
//! Analytic scalability models (paper §4.2).
//!
//! Closed-form background-maintenance bandwidth for four architectures —
//! Centralized (Eq. 1), Seaweed (Eq. 2), DHT-replicated (Eq. 3) and PIER
//! (Eq. 4) — plus PIER's availability decay (Table 2) and the parameter
//! sweeps behind Figures 3 and 4.

pub mod models;
pub mod params;
pub mod pier;
pub mod sweep;

pub use models::{maintenance_bps, Architecture};
pub use params::ModelParams;
pub use pier::pier_availability;
pub use sweep::{sweep, SweepAxis, SweepPoint};

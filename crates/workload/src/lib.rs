#![deny(missing_debug_implementations)]
//! The Anemone network-monitoring workload (paper §4.1).
//!
//! Anemone [Mortier et al., SIGCOMM MineNet 2005] turns every endsystem
//! into a network monitor: each machine records its own traffic into two
//! tables, `Flow` (one row per active flow per 5-minute measurement
//! interval) and `Packet` (one row per packet). The paper generated its
//! data set by capturing three weeks of inter-LAN traffic for 456 hosts;
//! that trace is unavailable, so this crate synthesizes per-endsystem
//! traffic with the properties the evaluation queries exercise:
//!
//! * a skewed **application/port mix** (HTTP dominating, SMB heavy-tailed,
//!   privileged-port service traffic on servers);
//! * **diurnal activity** for workstations, flat activity for servers;
//! * **heavy-tailed byte counts** per flow (log-normal-ish);
//! * optional gating on the endsystem's availability intervals, so data
//!   volume correlates with uptime exactly as on a real machine.
//!
//! Everything is deterministic per `(seed, endsystem)` and endsystems can
//! be generated one at a time, so experiments at 50k+ endsystems stream —
//! build a fragment, extract its summary and per-query row counts, drop
//! it — mirroring the paper's own pre-computation (§4.3).

pub mod flows;
pub mod queries;

pub use flows::{AnemoneConfig, EndsystemKind};
pub use queries::{
    paper_queries, PaperQuery, QUERY_HTTP_BYTES, QUERY_LARGE_FLOWS, QUERY_PRIV_PACKETS,
    QUERY_SMB_AVG,
};

use seaweed_store::{ColumnDef, DataType, Schema};

/// The `Flow` table schema. Indexed columns (ts, SrcPort, LocalPort,
/// Bytes, App) get histograms in the data summary — five per endsystem,
/// matching the paper's "5 such histograms".
#[must_use]
pub fn flow_schema() -> Schema {
    Schema::new(
        "Flow",
        vec![
            ColumnDef::new("ts", DataType::Int, true),
            ColumnDef::new("IntervalSecs", DataType::Int, false),
            ColumnDef::new("SrcPort", DataType::Int, true),
            ColumnDef::new("DstPort", DataType::Int, false),
            ColumnDef::new("LocalPort", DataType::Int, true),
            ColumnDef::new("Proto", DataType::Str, false),
            ColumnDef::new("App", DataType::Str, true),
            ColumnDef::new("Bytes", DataType::Int, true),
            ColumnDef::new("Packets", DataType::Int, false),
        ],
    )
}

/// The `Packet` table schema (sampled packet records for examples; the
/// evaluation queries all run on `Flow`).
#[must_use]
pub fn packet_schema() -> Schema {
    Schema::new(
        "Packet",
        vec![
            ColumnDef::new("ts", DataType::Int, true),
            ColumnDef::new("SrcPort", DataType::Int, true),
            ColumnDef::new("DstPort", DataType::Int, false),
            ColumnDef::new("Proto", DataType::Str, false),
            ColumnDef::new("Direction", DataType::Str, false),
            ColumnDef::new("SizeBytes", DataType::Int, true),
        ],
    )
}

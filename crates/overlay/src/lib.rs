#![deny(missing_debug_implementations)]
//! A Pastry structured overlay (MSPastry-style) running on the simulator.
//!
//! Seaweed is built on Pastry [Rowstron & Druschel, Middleware 2001] via
//! the MSPastry implementation's key-based routing API (paper §3.1). This
//! crate implements the overlay the way the paper configures it: ids are
//! 128-bit, digits are base 2^b with b = 4, the leafset holds l = 8
//! neighbors (4 clockwise, 4 counter-clockwise), leafset liveness is
//! maintained by 30-second heartbeats, and prefix routing delivers any
//! message to the live endsystem numerically closest to its key in
//! O(log_2^b N) hops.
//!
//! ## Fidelity model
//!
//! The simulation is monolithic, so the overlay keeps all node state in
//! one place and applies three documented hybrid shortcuts (DESIGN.md §3,
//! "What is simulated, what is accounted"):
//!
//! * **Heartbeats are metered, not simulated.** Each joined node registers
//!   standing Overlay-class traffic of `l × HEARTBEAT / period` bytes/sec
//!   in each direction. Failure *detection* — the only protocol-visible
//!   effect of heartbeats — is modelled by per-neighbor detection timers
//!   armed when a node actually fails (one heartbeat period + spread).
//!   Event-per-beat simulation of 20k nodes × 4 weeks would be ~10⁹ events
//!   that change no protocol decision.
//! * **Anti-entropy between synced pairs is metered, not simulated.** Once
//!   a real pull/push exchange has shown that pulling a leafset member
//!   again would merge and learn nothing, and until a stamp bump on either
//!   side says that may have changed, the pair's 60-second pulls are a
//!   standing rate too; a node whose pairs are all synced arms no refresh
//!   timer, and a converged ring schedules nothing at all.
//! * **Membership repair converges to ground truth, costs protocol
//!   messages.** When a node repairs its leafset (after detecting a
//!   failure, or when seeding a joiner), the new member set is computed
//!   from the true live membership, and the repair/bootstrap messages the
//!   real protocol would exchange are charged to the bandwidth recorder.
//!   MSPastry's leafsets converge within a round-trip under churn
//!   [Castro et al., DSN 2004]; this collapses that round-trip while
//!   keeping both the traffic and the *detection latency* (during which
//!   stale leafsets really do contain dead nodes) faithful.
//!
//! Routing itself is fully protocol-driven: per-hop messages through each
//! node's own routing table and leafset view, including routing around
//! entries that point at departed nodes (charging probe traffic for each
//! stale entry encountered, as MSPastry's per-hop acknowledgements do).

pub mod events;
pub mod node;
pub mod overlay;
pub mod ring;
pub mod wire;

pub use events::OverlayEvents;
pub use node::{LeafHalf, NodeState, HALF_CAP};
pub use overlay::{
    is_overlay_tag, Overlay, OverlayConfig, OverlayEngine, OverlayEvent, OverlayMsg, OverlayStats,
    HEARTBEAT_PERIOD, LEAFSET_REFRESH, SPARE_PUSH_MAX,
};
pub use ring::RingIndex;

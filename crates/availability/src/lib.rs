#![deny(missing_debug_implementations)]
//! Endsystem availability: traces, synthetic trace generators, and the
//! per-endsystem availability model used for completeness prediction.
//!
//! The paper drives all experiments with two real-world traces:
//!
//! * the **Farsite** trace — hourly pings of 51,663 endsystems on the
//!   Microsoft corporate network over ~4 weeks in July/August 1999 (mean
//!   availability 81%, clear diurnal/weekly periodicity, mean departure
//!   rate 4.06×10⁻⁶ per online endsystem per second);
//! * a **Gnutella** activity trace — 7,602 peers over 60 hours with a mean
//!   departure rate of 9.46×10⁻⁵ per online endsystem per second.
//!
//! Both traces are proprietary/unavailable, so [`farsite`] and
//! [`gnutella`] synthesize traces calibrated to every statistic the paper
//! reports (see DESIGN.md "Substitutions"). [`trace`] is the shared
//! representation — per-endsystem up-interval lists — with replay into the
//! simulator and statistics extraction. [`model`] implements §3.2.1's
//! availability model: a down-duration distribution plus an up-event
//! hour-of-day distribution, with endsystems self-classifying as periodic
//! when the hour distribution's peak-to-mean ratio exceeds 2.

pub mod farsite;
pub mod gnutella;
pub mod hourweek;
pub mod latency;
pub mod model;
pub mod trace;

pub use farsite::{FarsiteConfig, Profile};
pub use gnutella::GnutellaConfig;
pub use hourweek::HourOfWeekModel;
pub use latency::ReplyLatencyStats;
pub use model::{AvailabilityModel, ModelConfig, ReturnPrediction};
pub use trace::{AvailabilityTrace, TraceStats};

//! The simulation-deterministic counters the scale benches put in their
//! CSVs: identical for a fixed seed on any machine, under any executor.

use seaweed_core::{DataProvider, Seaweed, SeaweedEngine};

/// What one engine and its protocol stack did over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    pub events: u64,
    pub messages: u64,
    /// Bytes sent by traffic class: overlay, maintenance, query.
    pub tx_bytes: [u64; 3],
    pub meta_pushes: u64,
    pub dissem_msgs: u64,
    pub predictor_reports: u64,
    pub result_submissions: u64,
}

impl RunCounters {
    /// CSV column names, in [`RunCounters::columns`] order.
    pub const COLUMNS: [&'static str; 9] = [
        "events",
        "messages",
        "tx_overlay_bytes",
        "tx_maintenance_bytes",
        "tx_query_bytes",
        "meta_pushes",
        "disseminate_msgs",
        "predictor_reports",
        "result_submissions",
    ];

    /// Reads the counters off a finished run that dispatched `events`
    /// events (consumes the engine: the byte totals come from its final
    /// report).
    #[must_use]
    pub fn harvest<P: DataProvider>(events: u64, sw: &Seaweed<P>, eng: SeaweedEngine) -> Self {
        RunCounters {
            events,
            messages: eng.messages_sent,
            tx_bytes: eng.finish().total_tx,
            meta_pushes: sw.stats.meta_pushes,
            dissem_msgs: sw.stats.disseminate_msgs,
            predictor_reports: sw.stats.predictor_reports,
            result_submissions: sw.stats.result_submissions,
        }
    }

    #[must_use]
    pub fn columns(&self) -> [f64; 9] {
        [
            self.events as f64,
            self.messages as f64,
            self.tx_bytes[0] as f64,
            self.tx_bytes[1] as f64,
            self.tx_bytes[2] as f64,
            self.meta_pushes as f64,
            self.dissem_msgs as f64,
            self.predictor_reports as f64,
            self.result_submissions as f64,
        ]
    }
}

/// Shard-wise sum, for a partitioned run.
impl std::iter::Sum for RunCounters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(RunCounters::default(), |mut acc, c| {
            acc.events += c.events;
            acc.messages += c.messages;
            for (a, b) in acc.tx_bytes.iter_mut().zip(c.tx_bytes) {
                *a += b;
            }
            acc.meta_pushes += c.meta_pushes;
            acc.dissem_msgs += c.dissem_msgs;
            acc.predictor_reports += c.predictor_reports;
            acc.result_submissions += c.result_submissions;
            acc
        })
    }
}

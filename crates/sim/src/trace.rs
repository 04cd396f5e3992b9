//! Deterministic engine-level event tracing.
//!
//! The engine records every message send/deliver/drop (with its drop
//! cause), timer set/fire/cancel and node/partition transition into a
//! fixed-capacity ring buffer when [`crate::SimConfig::trace`] is set.
//! Tracing is strictly *observational*: it draws no randomness, schedules
//! nothing and allocates only inside the ring buffer, so enabling it can
//! never perturb the event order — runs with tracing on and off are
//! byte-identical (the determinism proptests pin this).
//!
//! With `trace: None` the engine's record hook is one branch per event
//! and the closure that would build the record never runs.
//!
//! Two export formats, both hand-rolled (the build environment has no
//! serde) and byte-stable per seed — records are written in capture
//! order, all numbers are integers, and no wall-clock or map iteration is
//! involved:
//!
//! * **JSONL** ([`Tracer::export_jsonl`]) — one JSON object per line,
//!   grep/jq-friendly, compared byte-for-byte by the CI trace smoke.
//! * **Chrome `trace_event`** ([`Tracer::export_chrome_trace`]) — a JSON
//!   document loadable in `chrome://tracing` / Perfetto; simulated
//!   microseconds map directly onto the viewer's `ts` axis and each node
//!   appears as one "thread" row.

use std::collections::VecDeque;

use seaweed_types::Time;

use crate::bandwidth::TrafficClass;
use crate::engine::NodeIdx;

/// Why a message was dropped. Mirrors the causes in the
/// [`crate::DropStats`] ledger, so the trace can be reconciled against
/// the per-cause counters exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropCause {
    /// Uniform random in-flight loss (`SimConfig::loss_rate`).
    RandomLoss,
    /// Fault-plan partition cut (at send time or in flight).
    Partition,
    /// Destination was down at delivery time.
    DestDown,
    /// Fault-plan link-degradation window.
    LinkFault,
}

impl DropCause {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DropCause::RandomLoss => "random_loss",
            DropCause::Partition => "partition",
            DropCause::DestDown => "dest_down",
            DropCause::LinkFault => "link_fault",
        }
    }
}

fn class_name(c: TrafficClass) -> &'static str {
    match c {
        TrafficClass::Overlay => "overlay",
        TrafficClass::Maintenance => "maintenance",
        TrafficClass::Query => "query",
    }
}

/// One traced engine-level occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message entered the network (tx side, before loss/faults).
    MessageSend {
        from: NodeIdx,
        to: NodeIdx,
        size: u32,
        class: TrafficClass,
    },
    /// A message was handed to the application at `to`.
    MessageDeliver {
        from: NodeIdx,
        to: NodeIdx,
        size: u32,
        class: TrafficClass,
    },
    /// A message left the network without being delivered.
    MessageDrop {
        from: NodeIdx,
        to: NodeIdx,
        class: TrafficClass,
        cause: DropCause,
    },
    /// The fault plan injected an extra copy of a message.
    MessageDuplicate {
        from: NodeIdx,
        to: NodeIdx,
        class: TrafficClass,
    },
    /// A timer was armed. `seq` is the engine's (deterministic) event
    /// sequence number, shared with the matching fire/cancel record
    /// (exported as `timer_seq` to keep it distinct from the record's
    /// own `seq`).
    TimerSet {
        node: NodeIdx,
        tag: u64,
        seq: u64,
        at: Time,
        detached: bool,
    },
    /// A timer fired and was dispatched to the application.
    TimerFire {
        node: NodeIdx,
        tag: u64,
        seq: u64,
    },
    /// A timer was disarmed before firing — explicitly, or automatically
    /// because its node went down.
    TimerCancel {
        node: NodeIdx,
        seq: u64,
        at: Time,
    },
    NodeUp {
        node: NodeIdx,
    },
    NodeDown {
        node: NodeIdx,
    },
    NodeCrash {
        node: NodeIdx,
    },
    PartitionStart {
        partition: u32,
    },
    PartitionEnd {
        partition: u32,
    },
    /// An application-level occurrence recorded through
    /// [`Engine::record_app_event`](crate::Engine::record_app_event) —
    /// e.g. a dissemination give-up or a hedge send. `kind` is the
    /// caller's stable counter name; `detail` is event-specific (the
    /// query handle for dissemination events).
    AppEvent {
        node: NodeIdx,
        kind: &'static str,
        detail: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case tag used by both export formats.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MessageSend { .. } => "message_send",
            TraceEvent::MessageDeliver { .. } => "message_deliver",
            TraceEvent::MessageDrop { .. } => "message_drop",
            TraceEvent::MessageDuplicate { .. } => "message_duplicate",
            TraceEvent::TimerSet { .. } => "timer_set",
            TraceEvent::TimerFire { .. } => "timer_fire",
            TraceEvent::TimerCancel { .. } => "timer_cancel",
            TraceEvent::NodeUp { .. } => "node_up",
            TraceEvent::NodeDown { .. } => "node_down",
            TraceEvent::NodeCrash { .. } => "node_crash",
            TraceEvent::PartitionStart { .. } => "partition_start",
            TraceEvent::PartitionEnd { .. } => "partition_end",
            TraceEvent::AppEvent { .. } => "app_event",
        }
    }

    /// The node this event is attributed to in per-node views (the
    /// receiver for deliveries/drops, the owner otherwise); partitions
    /// have no single node.
    #[must_use]
    pub fn node(&self) -> Option<NodeIdx> {
        match *self {
            TraceEvent::MessageSend { from, .. } => Some(from),
            TraceEvent::MessageDeliver { to, .. }
            | TraceEvent::MessageDrop { to, .. }
            | TraceEvent::MessageDuplicate { to, .. } => Some(to),
            TraceEvent::TimerSet { node, .. }
            | TraceEvent::TimerFire { node, .. }
            | TraceEvent::TimerCancel { node, .. }
            | TraceEvent::NodeUp { node }
            | TraceEvent::NodeDown { node }
            | TraceEvent::NodeCrash { node }
            | TraceEvent::AppEvent { node, .. } => Some(node),
            TraceEvent::PartitionStart { .. } | TraceEvent::PartitionEnd { .. } => None,
        }
    }

    /// Appends the event-specific JSON fields (no surrounding braces).
    fn write_args(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            TraceEvent::MessageSend {
                from,
                to,
                size,
                class,
            }
            | TraceEvent::MessageDeliver {
                from,
                to,
                size,
                class,
            } => {
                let _ = write!(
                    out,
                    "\"from\":{},\"to\":{},\"size\":{},\"class\":\"{}\"",
                    from.0,
                    to.0,
                    size,
                    class_name(class)
                );
            }
            TraceEvent::MessageDrop {
                from,
                to,
                class,
                cause,
            } => {
                let _ = write!(
                    out,
                    "\"from\":{},\"to\":{},\"class\":\"{}\",\"cause\":\"{}\"",
                    from.0,
                    to.0,
                    class_name(class),
                    cause.name()
                );
            }
            TraceEvent::MessageDuplicate { from, to, class } => {
                let _ = write!(
                    out,
                    "\"from\":{},\"to\":{},\"class\":\"{}\"",
                    from.0,
                    to.0,
                    class_name(class)
                );
            }
            TraceEvent::TimerSet {
                node,
                tag,
                seq,
                at,
                detached,
            } => {
                let _ = write!(
                    out,
                    "\"node\":{},\"tag\":{},\"timer_seq\":{},\"fires_at\":{},\"detached\":{}",
                    node.0, tag, seq, at.0, detached
                );
            }
            TraceEvent::TimerFire { node, tag, seq } => {
                let _ = write!(
                    out,
                    "\"node\":{},\"tag\":{},\"timer_seq\":{}",
                    node.0, tag, seq
                );
            }
            TraceEvent::TimerCancel { node, seq, at } => {
                let _ = write!(
                    out,
                    "\"node\":{},\"timer_seq\":{},\"fires_at\":{}",
                    node.0, seq, at.0
                );
            }
            TraceEvent::NodeUp { node }
            | TraceEvent::NodeDown { node }
            | TraceEvent::NodeCrash { node } => {
                let _ = write!(out, "\"node\":{}", node.0);
            }
            TraceEvent::PartitionStart { partition } | TraceEvent::PartitionEnd { partition } => {
                let _ = write!(out, "\"partition\":{partition}");
            }
            TraceEvent::AppEvent { node, kind, detail } => {
                let _ = write!(
                    out,
                    "\"node\":{},\"kind\":\"{kind}\",\"detail\":{detail}",
                    node.0
                );
            }
        }
    }
}

/// A timestamped trace record. `seq` is a tracer-local monotone counter
/// that totally orders records sharing a timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub at: Time,
    pub seq: u64,
    pub ev: TraceEvent,
}

/// Tracing configuration.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Ring-buffer capacity in records; once full, the oldest records are
    /// overwritten (counted in [`Tracer::dropped_records`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 16 }
    }
}

/// Fixed-capacity ring buffer of [`TraceRecord`]s.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    recorded: u64,
    dropped: u64,
}

impl Tracer {
    #[must_use]
    pub fn new(cfg: &TraceConfig) -> Self {
        let capacity = cfg.capacity.max(1);
        Tracer {
            capacity,
            // Cap the eager reservation; a huge configured capacity fills
            // lazily as records arrive.
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when at capacity.
    pub fn record(&mut self, at: Time, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.recorded;
        self.recorded += 1;
        self.buf.push_back(TraceRecord { at, seq, ev });
    }

    /// Records currently held (oldest first).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever captured (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records evicted from the ring because the buffer was full.
    #[must_use]
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// One JSON object per line:
    /// `{"at":<µs>,"seq":<n>,"type":"message_send",...}`.
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.buf.len() * 96);
        for r in &self.buf {
            let _ = write!(
                out,
                "{{\"at\":{},\"seq\":{},\"type\":\"{}\",",
                r.at.0,
                r.seq,
                r.ev.kind()
            );
            r.ev.write_args(&mut out);
            out.push_str("}\n");
        }
        out
    }

    /// A Chrome `trace_event` JSON document (instant events, one viewer
    /// "thread" per node; partition markers land on tid 0).
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(self.buf.len() * 128 + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, r) in self.buf.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = r.ev.node().map_or(0, |n| n.0);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{",
                r.ev.kind(),
                r.at.0,
                tid
            );
            r.ev.write_args(&mut out);
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Tracer::new(&TraceConfig { capacity: 2 });
        for i in 0..5u32 {
            t.record(Time(u64::from(i)), TraceEvent::NodeUp { node: NodeIdx(i) });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped_records(), 3);
        let kept: Vec<u64> = t.records().map(|r| r.at.0).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn jsonl_is_one_valid_line_per_record() {
        let mut t = Tracer::new(&TraceConfig::default());
        t.record(
            Time(7),
            TraceEvent::MessageSend {
                from: NodeIdx(1),
                to: NodeIdx(2),
                size: 64,
                class: TrafficClass::Query,
            },
        );
        t.record(
            Time(9),
            TraceEvent::MessageDrop {
                from: NodeIdx(1),
                to: NodeIdx(2),
                class: TrafficClass::Query,
                cause: DropCause::RandomLoss,
            },
        );
        let text = t.export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at\":7,\"seq\":0,\"type\":\"message_send\",\
             \"from\":1,\"to\":2,\"size\":64,\"class\":\"query\"}"
        );
        assert!(lines[1].contains("\"cause\":\"random_loss\""));
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Tracer::new(&TraceConfig::default());
        t.record(Time(1), TraceEvent::NodeUp { node: NodeIdx(3) });
        t.record(Time(2), TraceEvent::PartitionStart { partition: 0 });
        let text = t.export_chrome_trace();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"name\":\"node_up\""));
        assert!(text.contains("\"tid\":3"));
        assert!(text.trim_end().ends_with("]}"));
        // Exactly one comma between the two events.
        assert_eq!(text.matches("\"ph\":\"i\"").count(), 2);
    }
}

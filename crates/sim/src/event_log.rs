//! The schedule fingerprint every golden rests on.
//!
//! An [`EventLog`] is an FNV-1a hash over one compact descriptor per
//! delivered event — kind, time, endpoints, timer tag — in delivery
//! order, plus the event count. Payload contents are never read:
//! ordering, endpoints and timestamps pin the schedule bit for bit, and
//! the log works for any payload type. The golden fingerprints in
//! `core/tests` were recorded from implementations that no longer exist,
//! so the descriptor format below must never change; the unit test pins
//! it to a literal.

use std::fmt::Write as _;

use seaweed_types::Time;

use crate::engine::Event;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// Running FNV-1a state; formatting into it hashes the rendered bytes
/// without building the string.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Fingerprint of the events a run delivered, in order.
#[derive(Clone, Copy, Debug)]
pub struct EventLog {
    hash: Fnv,
    events: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    #[must_use]
    pub fn new() -> Self {
        EventLog {
            hash: Fnv(FNV_OFFSET),
            events: 0,
        }
    }

    /// Folds in the event `ev` delivered at `t`.
    pub fn add<M>(&mut self, t: Time, ev: &Event<M>) {
        let t = t.as_micros();
        let h = &mut self.hash;
        match *ev {
            Event::Message { from, to, .. } => write!(h, "m:{}:{}:{}", t, from.0, to.0),
            Event::Timer { node, tag } => write!(h, "t:{}:{}:{tag}", t, node.0),
            Event::NodeUp { node } => write!(h, "u:{}:{}", t, node.0),
            Event::NodeDown { node } => write!(h, "d:{}:{}", t, node.0),
            Event::NodeCrash { node } => write!(h, "c:{}:{}", t, node.0),
            Event::PartitionStart { partition } => write!(h, "ps:{}:{partition}", t),
            Event::PartitionEnd { partition } => write!(h, "pe:{}:{partition}", t),
        }
        .expect("hashing cannot fail");
        self.events += 1;
    }

    /// The FNV-1a hash over every descriptor so far.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash.0
    }

    /// How many events were folded in.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NodeIdx, Payload};

    /// One event per `Event` variant. The literal is the FNV-1a of
    /// "m:5:1:2" "t:6:3:77" "u:7:4" "d:8:4" "c:9:5" "ps:10:0" "pe:11:0"
    /// concatenated: if this moves, every golden in `core/tests` moved
    /// with it and none of them can be trusted.
    #[test]
    fn descriptor_format_is_pinned() {
        let events: [Event<&str>; 7] = [
            Event::Message {
                from: NodeIdx(1),
                to: NodeIdx(2),
                payload: Payload::Owned("never read"),
            },
            Event::Timer {
                node: NodeIdx(3),
                tag: 77,
            },
            Event::NodeUp { node: NodeIdx(4) },
            Event::NodeDown { node: NodeIdx(4) },
            Event::NodeCrash { node: NodeIdx(5) },
            Event::PartitionStart { partition: 0 },
            Event::PartitionEnd { partition: 0 },
        ];
        let mut log = EventLog::new();
        for (i, ev) in events.iter().enumerate() {
            log.add(Time(5 + i as u64), ev);
        }
        assert_eq!(log.events(), 7);
        assert_eq!(log.hash(), 0xec70_de94_3186_b8ed);
        assert_eq!(
            log.hash(),
            fnv1a(b"m:5:1:2t:6:3:77u:7:4d:8:4c:9:5ps:10:0pe:11:0")
        );
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

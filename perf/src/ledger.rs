//! The per-layer ledger of a traced run.
//!
//! Per-event spans number in the tens of millions, so they are folded
//! into one row per [`Class`] as they end; what is kept as a span is the
//! tree above them: workload → `setup.*` and `run` → one `window` per
//! simulated hour carrying that hour's rows. Spans live in memory and
//! are written out once the run is over.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::Counts;
use crate::classify::Class;

const CLASSES: usize = Class::ALL.len();

/// Totals of the spans of one class: how many, their summed self time,
/// and the allocations made inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    pub events: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Row {
    pub fn add(&mut self, self_ns: u64, counts: Counts) {
        self.events += 1;
        self.self_ns += self_ns;
        self.allocs += counts.allocs;
        self.alloc_bytes += counts.bytes;
    }

    fn merge(&mut self, other: &Row) {
        self.events += other.events;
        self.self_ns += other.self_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// One simulated hour of the run.
#[derive(Debug, Clone)]
pub struct Window {
    pub sim_hour: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows: [Row; CLASSES],
}

#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    open: Window,
    pub windows: Vec<Window>,
}

impl Ledger {
    /// Starts the ledger; window times are host ns since `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Ledger {
            epoch,
            open: Window {
                sim_hour: 0,
                start_ns: ns_since(epoch, Instant::now()),
                end_ns: 0,
                rows: [Row::default(); CLASSES],
            },
            windows: Vec::new(),
        }
    }

    /// Closes the open window if the simulation has moved to another
    /// hour. Called with the timestamp of the event about to be charged.
    pub fn roll(&mut self, sim_hour: u64, now: Instant) {
        if sim_hour != self.open.sim_hour {
            self.close(now);
            self.open.sim_hour = sim_hour;
        }
    }

    pub fn add(&mut self, class: Class, self_ns: u64, counts: Counts) {
        self.open.rows[class.index()].add(self_ns, counts);
    }

    /// Adds already-summed spans (the store spans of one dispatch).
    pub fn add_row(&mut self, class: Class, row: &Row) {
        self.open.rows[class.index()].merge(row);
    }

    /// Charges a row known only for the run as a whole (the executor's
    /// time outside dispatch) to the run's first closed window.
    pub fn charge_run(&mut self, class: Class, row: &Row) {
        if let Some(w) = self.windows.first_mut() {
            w.rows[class.index()].merge(row);
        }
    }

    fn close(&mut self, now: Instant) {
        let end_ns = ns_since(self.epoch, now);
        let mut done = Window {
            sim_hour: self.open.sim_hour,
            start_ns: end_ns,
            end_ns: 0,
            rows: [Row::default(); CLASSES],
        };
        std::mem::swap(&mut done, &mut self.open);
        done.end_ns = end_ns;
        if done.rows.iter().any(|r| r.events > 0) {
            self.windows.push(done);
        }
    }

    /// Closes the last window.
    pub fn finish(&mut self, now: Instant) {
        self.close(now);
    }

    /// Per-class totals over all closed windows.
    #[must_use]
    pub fn totals(&self) -> [Row; CLASSES] {
        let mut t = [Row::default(); CLASSES];
        for w in &self.windows {
            for (acc, r) in t.iter_mut().zip(&w.rows) {
                acc.merge(r);
            }
        }
        t
    }

    /// Folds another shard's ledger into this one, window by simulated
    /// hour (shards of one run share simulated time, not host threads).
    pub fn merge(&mut self, other: &Ledger) {
        for w in &other.windows {
            match self.windows.iter_mut().find(|m| m.sim_hour == w.sim_hour) {
                Some(m) => {
                    m.start_ns = m.start_ns.min(w.start_ns);
                    m.end_ns = m.end_ns.max(w.end_ns);
                    for (acc, r) in m.rows.iter_mut().zip(&w.rows) {
                        acc.merge(r);
                    }
                }
                None => self.windows.push(w.clone()),
            }
        }
        self.windows.sort_by_key(|w| w.sim_hour);
    }
}

#[must_use]
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// A kept span: name, host-time interval, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Host ns spent in the span. Less than the interval for a stage
    /// that runs once per endsystem, interleaved with other stages.
    pub busy_ns: u64,
    pub parent: Option<usize>,
}

/// The span tree of one traced repetition, in creation order (a span's
/// id is its index).
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// `(parent span, window)` pairs, written after the named spans.
    pub windows: Vec<(usize, Window)>,
}

impl SpanLog {
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Records one more piece of a stage that runs in pieces: extends
    /// the stage's span to `end_ns` and adds the piece to its busy time.
    pub fn extend(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        match self.spans.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.end_ns = end_ns;
                s.busy_ns += end_ns - start_ns;
            }
            None => {
                self.push(name, start_ns, end_ns, parent);
            }
        }
    }

    /// One JSON object per line; all spans of a workload share its name
    /// as their identifier.
    #[must_use]
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        let parent = |p: Option<usize>| p.map_or("null".to_owned(), |p| p.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"parent\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                parent(s.parent)
            )
            .expect("string write");
        }
        for (i, (p, w)) in self.windows.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{},\"workload\":\"{workload}\",\"name\":\"window\",\"start_ns\":{},\"end_ns\":{},\"parent\":{p},\"sim_hour\":{},\"classes\":{{",
                self.spans.len() + i,
                w.start_ns,
                w.end_ns,
                w.sim_hour
            )
            .expect("string write");
            let mut first = true;
            for c in Class::ALL {
                let r = &w.rows[c.index()];
                if r.events == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                write!(
                    out,
                    "\"{}\":{{\"events\":{},\"self_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                    c.name(),
                    r.events,
                    r.self_ns,
                    r.allocs,
                    r.alloc_bytes
                )
                .expect("string write");
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn counts(allocs: u64, bytes: u64) -> Counts {
        Counts { allocs, bytes }
    }

    #[test]
    fn windows_close_on_the_simulated_hour_and_totals_sum_them() {
        let epoch = Instant::now();
        let mut l = Ledger::new(epoch);
        l.add(Class::SimPop, 10, counts(0, 0));
        l.add(Class::CoreMetadata, 100, counts(2, 64));
        l.roll(0, epoch + Duration::from_nanos(500)); // same hour: no-op
        assert!(l.windows.is_empty());
        l.roll(1, epoch + Duration::from_nanos(1_000));
        l.add(Class::CoreMetadata, 50, counts(1, 32));
        l.finish(epoch + Duration::from_nanos(2_000));
        assert_eq!(l.windows.len(), 2);
        assert_eq!(l.windows[0].sim_hour, 0);
        assert_eq!(l.windows[0].end_ns, 1_000);
        assert_eq!(l.windows[1].start_ns, 1_000);
        assert_eq!(l.windows[1].end_ns, 2_000);
        let t = l.totals();
        assert_eq!(
            t[Class::CoreMetadata.index()],
            Row {
                events: 2,
                self_ns: 150,
                allocs: 3,
                alloc_bytes: 96
            }
        );
        assert_eq!(t[Class::SimPop.index()].events, 1);
    }

    #[test]
    fn empty_hours_leave_no_window() {
        let epoch = Instant::now();
        let mut l = Ledger::new(epoch);
        l.roll(5, epoch);
        l.add(Class::ChurnNode, 7, counts(0, 0));
        l.finish(epoch);
        assert_eq!(l.windows.len(), 1);
        assert_eq!(l.windows[0].sim_hour, 5);
    }

    #[test]
    fn shard_ledgers_merge_by_simulated_hour() {
        let epoch = Instant::now();
        let mut a = Ledger::new(epoch);
        a.add(Class::CoreResults, 10, counts(1, 8));
        a.finish(epoch);
        let mut b = Ledger::new(epoch);
        b.add(Class::CoreResults, 30, counts(1, 8));
        b.roll(1, epoch);
        b.add(Class::SimExec, 5, counts(0, 0));
        b.finish(epoch);
        a.merge(&b);
        assert_eq!(a.windows.len(), 2);
        assert_eq!(a.totals()[Class::CoreResults.index()].self_ns, 40);
        assert_eq!(a.totals()[Class::SimExec.index()].events, 1);
    }

    #[test]
    fn span_log_writes_one_object_per_line_with_parents() {
        let mut log = SpanLog::default();
        let root = log.push("workload", 0, 100, None);
        let run = log.push("run", 10, 90, Some(root));
        let mut rows = [Row::default(); CLASSES];
        rows[Class::SimPop.index()].add(5, counts(0, 0));
        log.windows.push((
            run,
            Window {
                sim_hour: 3,
                start_ns: 10,
                end_ns: 90,
                rows,
            },
        ));
        let text = log.to_jsonl("engine_only");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"workload\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"name\":\"run\"") && lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"sim_hour\":3"));
        assert!(lines[2].contains("\"sim.pop\":{\"events\":1,\"self_ns\":5"));
        assert!(lines[2].contains("\"parent\":1"));
    }
}

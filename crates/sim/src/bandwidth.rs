//! Streaming bandwidth accounting.
//!
//! Figure 9 of the paper reports (a) per-online-endsystem overhead over
//! time, broken into MSPastry / Seaweed-maintenance / Seaweed-query
//! traffic, (b) the CDF of per-endsystem per-hour bandwidth (a sample is
//! one endsystem's average over one hour; zero means the endsystem was
//! down that hour), (c) that CDF's insensitivity to id assignment and (d)
//! per-endsystem overhead versus network size.
//!
//! Storing every (node, hour) pair for a 20,000-node, 4-week run would be
//! 13.4M samples per direction — affordable, but we stream anyway: the
//! recorder keeps only current-hour counters per node, and at each hour
//! boundary flushes them into per-hour aggregate series and (optionally)
//! raw CDF sample vectors.
//!
//! **Standing traffic.** Strictly periodic small messages would dominate
//! the event queue without affecting protocol decisions: the 30 s leafset
//! heartbeats (failure detection models the heartbeat *timeout*, not each
//! beat) and the 60 s leafset anti-entropy pulls of a node all of whose
//! exchanges are known to merge nothing (the overlay's *sleeping* nodes).
//! Such flows register a per-node bytes/second rate instead
//! ([`BandwidthRecorder::set_standing`]). The recorder integrates
//! piecewise: every rate change, every up/down edge and every hour flush
//! closes the stretch since the previous one and charges `rate × its
//! length` to the hour it fell in, so a rate is charged for exactly the
//! time it was in force on an up node, and totals, per-hour series and
//! CDF samples are what event-per-message simulation would record (up to
//! sub-period phase).

use seaweed_types::{Duration, Time};

/// Class of traffic a message belongs to, for Figure 9(a)-style breakdowns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficClass {
    /// Pastry overlay maintenance: leafset heartbeats, join traffic,
    /// routing-table repair.
    Overlay = 0,
    /// Seaweed background maintenance: metadata (histogram + availability
    /// model) replication.
    Maintenance = 1,
    /// Per-query traffic: dissemination, predictor aggregation, results.
    Query = 2,
}

pub const NUM_CLASSES: usize = 3;

/// Per-hour aggregate across the whole network for one traffic direction.
#[derive(Clone, Copy, Default, Debug)]
pub struct HourAggregate {
    /// Total bytes by class.
    pub bytes: [u64; NUM_CLASSES],
    /// Time-integral of the number of online endsystems over the hour, in
    /// endsystem-microseconds; divide by 3.6e9 for the mean online count.
    pub online_node_us: u64,
}

impl HourAggregate {
    /// Mean number of endsystems online during the hour.
    #[must_use]
    pub fn mean_online(&self) -> f64 {
        self.online_node_us as f64 / Duration::HOUR.as_micros() as f64
    }

    /// Mean bytes/second per online endsystem for one class.
    #[must_use]
    pub fn per_online_bps(&self, class: TrafficClass) -> f64 {
        let online = self.mean_online();
        if online <= 0.0 {
            return 0.0;
        }
        self.bytes[class as usize] as f64 / 3600.0 / online
    }

    /// Mean bytes/second per online endsystem, all classes.
    #[must_use]
    pub fn total_per_online_bps(&self) -> f64 {
        let online = self.mean_online();
        if online <= 0.0 {
            return 0.0;
        }
        self.bytes.iter().sum::<u64>() as f64 / 3600.0 / online
    }
}

/// Records bandwidth usage during a simulation run.
#[derive(Debug)]
pub struct BandwidthRecorder {
    n: usize,
    collect_cdf: bool,
    /// Hour currently being accumulated.
    cur_hour: u64,
    /// Per-node current-hour bytes by class: `[node][class]`.
    cur_tx: Vec<[u64; NUM_CLASSES]>,
    cur_rx: Vec<[u64; NUM_CLASSES]>,
    /// Standing (periodic, event-free) rates in bytes/sec of uptime.
    standing_tx: Vec<[f32; NUM_CLASSES]>,
    standing_rx: Vec<[f32; NUM_CLASSES]>,
    /// Start of each up node's current stretch: since then it has been
    /// up at its current standing rates, not yet charged for them.
    up_since: Vec<Option<Time>>,
    /// Standing bytes of the closed stretches of the current hour.
    standing_acc_tx: Vec<[f64; NUM_CLASSES]>,
    standing_acc_rx: Vec<[f64; NUM_CLASSES]>,
    /// Completed per-hour aggregates.
    tx_hours: Vec<HourAggregate>,
    rx_hours: Vec<HourAggregate>,
    /// Raw CDF samples: one f32 per (node, completed hour), bytes/sec,
    /// summed across classes. Only populated when `collect_cdf`.
    tx_samples: Vec<f32>,
    rx_samples: Vec<f32>,
    /// Whole-run totals by class (tx side, standing included at flush).
    total_tx: [u64; NUM_CLASSES],
    /// Online-time integral bookkeeping (global).
    online_count: usize,
    online_integral_us: u64,
    last_online_change: Time,
}

impl BandwidthRecorder {
    #[must_use]
    pub fn new(num_nodes: usize, collect_cdf: bool) -> Self {
        BandwidthRecorder {
            n: num_nodes,
            collect_cdf,
            cur_hour: 0,
            cur_tx: vec![[0; NUM_CLASSES]; num_nodes],
            cur_rx: vec![[0; NUM_CLASSES]; num_nodes],
            standing_tx: vec![[0.0; NUM_CLASSES]; num_nodes],
            standing_rx: vec![[0.0; NUM_CLASSES]; num_nodes],
            up_since: vec![None; num_nodes],
            standing_acc_tx: vec![[0.0; NUM_CLASSES]; num_nodes],
            standing_acc_rx: vec![[0.0; NUM_CLASSES]; num_nodes],
            tx_hours: Vec::new(),
            rx_hours: Vec::new(),
            tx_samples: Vec::new(),
            rx_samples: Vec::new(),
            total_tx: [0; NUM_CLASSES],
            online_count: 0,
            online_integral_us: 0,
            last_online_change: Time::ZERO,
        }
    }

    /// Advances the hour cursor, flushing completed hours. Must be called
    /// with monotonically non-decreasing times before recording at `now`.
    pub fn advance(&mut self, now: Time) {
        let hour = now.hours_since_epoch();
        while self.cur_hour < hour {
            let boundary = Time::from_micros((self.cur_hour + 1) * Duration::HOUR.as_micros());
            self.accumulate_online(boundary);
            self.flush_hour(boundary);
            self.cur_hour += 1;
        }
    }

    fn flush_hour(&mut self, boundary: Time) {
        let mut tx_agg = HourAggregate {
            bytes: [0; NUM_CLASSES],
            online_node_us: self.online_integral_us,
        };
        let mut rx_agg = tx_agg;
        self.online_integral_us = 0;
        for node in 0..self.n {
            // Fold standing traffic into the counters.
            self.close_stretch(boundary, node);
            for c in 0..NUM_CLASSES {
                let st = std::mem::take(&mut self.standing_acc_tx[node][c]) as u64;
                let sr = std::mem::take(&mut self.standing_acc_rx[node][c]) as u64;
                self.cur_tx[node][c] += st;
                self.cur_rx[node][c] += sr;
                self.total_tx[c] += st;
            }
            let t: u64 = self.cur_tx[node].iter().sum();
            let r: u64 = self.cur_rx[node].iter().sum();
            for c in 0..NUM_CLASSES {
                tx_agg.bytes[c] += self.cur_tx[node][c];
                rx_agg.bytes[c] += self.cur_rx[node][c];
            }
            if self.collect_cdf {
                self.tx_samples.push(t as f32 / 3600.0);
                self.rx_samples.push(r as f32 / 3600.0);
            }
            self.cur_tx[node] = [0; NUM_CLASSES];
            self.cur_rx[node] = [0; NUM_CLASSES];
        }
        self.tx_hours.push(tx_agg);
        self.rx_hours.push(rx_agg);
    }

    /// Charges `node` its standing rates for the stretch it has been up
    /// since the last call, and starts the next stretch at `now`.
    fn close_stretch(&mut self, now: Time, node: usize) {
        let Some(since) = self.up_since[node] else {
            return;
        };
        let secs = now.saturating_since(since).as_micros() as f64 / 1e6;
        for c in 0..NUM_CLASSES {
            self.standing_acc_tx[node][c] += f64::from(self.standing_tx[node][c]) * secs;
            self.standing_acc_rx[node][c] += f64::from(self.standing_rx[node][c]) * secs;
        }
        self.up_since[node] = Some(now);
    }

    fn accumulate_online(&mut self, now: Time) {
        let dt = now.saturating_since(self.last_online_change);
        self.online_integral_us += dt.as_micros() * self.online_count as u64;
        self.last_online_change = now;
    }

    /// Notifies the recorder that `node` came up at `now`.
    pub fn node_up(&mut self, now: Time, node: usize) {
        self.advance(now);
        self.accumulate_online(now);
        self.online_count += 1;
        debug_assert!(self.up_since[node].is_none());
        self.up_since[node] = Some(now);
    }

    /// Notifies the recorder that `node` went down at `now`.
    pub fn node_down(&mut self, now: Time, node: usize) {
        self.advance(now);
        self.accumulate_online(now);
        self.online_count = self.online_count.saturating_sub(1);
        self.close_stretch(now, node);
        self.up_since[node] = None;
    }

    /// Registers standing (periodic, event-free) traffic for `node` from
    /// `now` on: `tx_rate`/`rx_rate` bytes per second of *uptime*.
    /// Replaces the previous rate for that class, which is charged up to
    /// `now`.
    pub fn set_standing(
        &mut self,
        now: Time,
        node: usize,
        class: TrafficClass,
        tx_rate: f32,
        rx_rate: f32,
    ) {
        let c = class as usize;
        if (self.standing_tx[node][c], self.standing_rx[node][c]) == (tx_rate, rx_rate) {
            return;
        }
        self.advance(now);
        self.close_stretch(now, node);
        self.standing_tx[node][c] = tx_rate;
        self.standing_rx[node][c] = rx_rate;
    }

    /// The standing `(tx, rx)` rates currently registered for `node`.
    #[must_use]
    pub fn standing(&self, node: usize, class: TrafficClass) -> (f32, f32) {
        let c = class as usize;
        (self.standing_tx[node][c], self.standing_rx[node][c])
    }

    /// Records `bytes` transmitted by `node`.
    pub fn record_tx(&mut self, now: Time, node: usize, class: TrafficClass, bytes: u32) {
        self.advance(now);
        self.cur_tx[node][class as usize] += u64::from(bytes);
        self.total_tx[class as usize] += u64::from(bytes);
    }

    /// Records `bytes` received by `node`.
    pub fn record_rx(&mut self, now: Time, node: usize, class: TrafficClass, bytes: u32) {
        self.advance(now);
        self.cur_rx[node][class as usize] += u64::from(bytes);
    }

    /// Whole-run transmitted-byte totals by class so far. Standing flows
    /// are included up to the last completed hour flush (their stretches
    /// reach the totals at flush time).
    #[must_use]
    pub fn totals_tx(&self) -> [u64; NUM_CLASSES] {
        self.total_tx
    }

    /// Finalizes accounting at `end` and produces the report.
    ///
    /// Flushes the final partial hour so that `total_tx` always equals
    /// the sum of the per-hour series: the standing-rate integral and any
    /// counters accumulated since the last boundary are folded into one
    /// last (short) [`HourAggregate`].
    #[must_use]
    pub fn finish(mut self, end: Time) -> BandwidthReport {
        self.advance(end);
        // `advance` has flushed every whole hour before `end`. Two things
        // can still be pending: time elapsed past the last boundary, or
        // bytes recorded exactly *at* an end-of-run boundary (an event at
        // t = k·1h belongs to hour k, which `advance(k·1h)` does not
        // flush). Skipping the latter used to leak those bytes from the
        // per-hour series while `total_tx` still counted them.
        let boundary = self.cur_hour * Duration::HOUR.as_micros();
        let pending_bytes = self
            .cur_tx
            .iter()
            .chain(self.cur_rx.iter())
            .flatten()
            .any(|&b| b != 0);
        if end.as_micros() > boundary || pending_bytes {
            self.accumulate_online(end);
            self.flush_hour(end);
        }
        let mut tx_samples = self.tx_samples;
        let mut rx_samples = self.rx_samples;
        tx_samples.sort_by(f32::total_cmp);
        rx_samples.sort_by(f32::total_cmp);
        BandwidthReport {
            tx_hours: self.tx_hours,
            rx_hours: self.rx_hours,
            tx_samples_sorted: tx_samples,
            rx_samples_sorted: rx_samples,
            total_tx: self.total_tx,
            drops: DropStats::default(),
        }
    }
}

/// Message drops broken down by cause, plus fault-plan duplication.
/// Filled in by the engine at [`crate::Engine::finish`]; every cause is
/// zero on a fault-free run except `random_loss` and `dest_down`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DropStats {
    /// Uniform random in-flight loss (`SimConfig::loss_rate`).
    pub random_loss: u64,
    /// Dropped at a fault-plan partition cut (at send or in flight).
    pub partition: u64,
    /// Destination was down at delivery time.
    pub dest_down: u64,
    /// Dropped by a fault-plan link-degradation window.
    pub link_fault: u64,
    /// Extra copies delivered by fault-plan duplication (not drops, but
    /// part of the same conservation ledger: sent + duplicated =
    /// delivered + dropped).
    pub duplicated: u64,
    /// Drops from all causes, bucketed by traffic class.
    pub by_class: [u64; NUM_CLASSES],
}

impl DropStats {
    /// Total messages dropped, all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.random_loss + self.partition + self.dest_down + self.link_fault
    }
}

/// Completed bandwidth accounting for a run.
#[derive(Debug, Default)]
pub struct BandwidthReport {
    pub tx_hours: Vec<HourAggregate>,
    pub rx_hours: Vec<HourAggregate>,
    /// Sorted per-(node,hour) tx samples in bytes/sec (empty unless CDF
    /// collection was enabled).
    pub tx_samples_sorted: Vec<f32>,
    pub rx_samples_sorted: Vec<f32>,
    pub total_tx: [u64; NUM_CLASSES],
    /// Per-cause drop counters (see [`DropStats`]).
    pub drops: DropStats,
}

impl BandwidthReport {
    /// Percentile (0..=100) of the per-(node,hour) tx distribution.
    #[must_use]
    pub fn tx_percentile(&self, pct: f64) -> f32 {
        percentile(&self.tx_samples_sorted, pct)
    }

    /// Percentile (0..=100) of the per-(node,hour) rx distribution.
    #[must_use]
    pub fn rx_percentile(&self, pct: f64) -> f32 {
        percentile(&self.rx_samples_sorted, pct)
    }

    /// Mean bytes/sec per *online* endsystem across the whole run for one
    /// class (tx direction).
    #[must_use]
    pub fn mean_tx_per_online_bps(&self, class: TrafficClass) -> f64 {
        let bytes: u64 = self.tx_hours.iter().map(|h| h.bytes[class as usize]).sum();
        let online_us: u64 = self.tx_hours.iter().map(|h| h.online_node_us).sum();
        if online_us == 0 {
            return 0.0;
        }
        bytes as f64 / (online_us as f64 / 1e6)
    }

    /// Mean bytes/sec per online endsystem, all classes (tx).
    #[must_use]
    pub fn mean_tx_total_per_online_bps(&self) -> f64 {
        (0..NUM_CLASSES)
            .map(|c| self.mean_tx_per_online_bps(class_from(c)))
            .sum()
    }

    /// Fraction of per-(node,hour) samples that are exactly zero — the
    /// CDF's y-intercept, which the paper reads as mean unavailability.
    #[must_use]
    pub fn tx_zero_fraction(&self) -> f64 {
        if self.tx_samples_sorted.is_empty() {
            return 0.0;
        }
        let zeros = self
            .tx_samples_sorted
            .iter()
            .take_while(|&&s| s == 0.0)
            .count();
        zeros as f64 / self.tx_samples_sorted.len() as f64
    }
}

fn class_from(i: usize) -> TrafficClass {
    match i {
        0 => TrafficClass::Overlay,
        1 => TrafficClass::Maintenance,
        _ => TrafficClass::Query,
    }
}

fn percentile(sorted: &[f32], pct: f64) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_flush_and_totals() {
        let mut rec = BandwidthRecorder::new(2, true);
        rec.node_up(Time::ZERO, 0);
        rec.node_up(Time::ZERO, 1);
        rec.record_tx(Time::from_micros(10), 0, TrafficClass::Maintenance, 3600);
        rec.record_rx(Time::from_micros(20), 1, TrafficClass::Maintenance, 7200);
        // Move into hour 2 to force a flush of hours 0 and 1.
        rec.advance(Time::ZERO + Duration::from_hours(2));
        let report = rec.finish(Time::ZERO + Duration::from_hours(2));
        assert_eq!(report.tx_hours.len(), 2);
        assert_eq!(
            report.tx_hours[0].bytes[TrafficClass::Maintenance as usize],
            3600
        );
        assert_eq!(
            report.rx_hours[0].bytes[TrafficClass::Maintenance as usize],
            7200
        );
        assert_eq!(
            report.tx_hours[1].bytes[TrafficClass::Maintenance as usize],
            0
        );
        // 2 nodes online all of hour 0.
        assert!((report.tx_hours[0].mean_online() - 2.0).abs() < 1e-9);
        // Node 0 sent 3600 B in hour 0 => 1 B/s sample; node 1 sent 0.
        assert_eq!(report.tx_samples_sorted.len(), 4);
        assert_eq!(*report.tx_samples_sorted.last().unwrap(), 1.0);
        assert_eq!(report.total_tx[TrafficClass::Maintenance as usize], 3600);
    }

    #[test]
    fn online_integral_tracks_downtime() {
        let mut rec = BandwidthRecorder::new(1, false);
        rec.node_up(Time::ZERO, 0);
        // Down at 30 minutes.
        rec.node_down(Time::ZERO + Duration::from_mins(30), 0);
        rec.advance(Time::ZERO + Duration::from_hours(1));
        let report = rec.finish(Time::ZERO + Duration::from_hours(1));
        assert!((report.tx_hours[0].mean_online() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn standing_traffic_integrates_uptime() {
        let mut rec = BandwidthRecorder::new(2, true);
        rec.set_standing(Time::ZERO, 0, TrafficClass::Overlay, 10.0, 5.0);
        rec.node_up(Time::ZERO, 0);
        // Node 0 up for 30 min then down; node 1 never up.
        rec.node_down(Time::ZERO + Duration::from_mins(30), 0);
        let report = rec.finish(Time::ZERO + Duration::from_hours(1));
        let tx = report.tx_hours[0].bytes[TrafficClass::Overlay as usize];
        let rx = report.rx_hours[0].bytes[TrafficClass::Overlay as usize];
        assert_eq!(tx, 10 * 1800);
        assert_eq!(rx, 5 * 1800);
        assert_eq!(report.total_tx[TrafficClass::Overlay as usize], 10 * 1800);
        // Sample for node 0: 18000/3600 = 5 B/s.
        assert_eq!(*report.tx_samples_sorted.last().unwrap(), 5.0);
        // Node 1 contributes a zero sample.
        assert_eq!(report.tx_samples_sorted[0], 0.0);
        assert_eq!(report.tx_zero_fraction(), 0.5);
    }

    /// Down at :50, up at :55 with another rate, flush at :60: each rate
    /// is charged for the minutes it was in force on an up node — not the
    /// rate standing at the flush for the whole hour's uptime (which would
    /// charge 55 min × 4 B/s here, and nothing at all had the node stayed
    /// down with its rate zeroed).
    #[test]
    fn a_rate_that_changes_mid_hour_is_charged_piecewise() {
        let min = |m| Time::ZERO + Duration::from_mins(m);
        let mut rec = BandwidthRecorder::new(2, true);
        rec.node_up(Time::ZERO, 0);
        rec.set_standing(Time::ZERO, 0, TrafficClass::Overlay, 10.0, 5.0);
        // Node 1 changes rate twice while up; ends the hour down.
        rec.node_up(min(10), 1);
        rec.set_standing(min(10), 1, TrafficClass::Maintenance, 1.0, 1.0);
        rec.set_standing(min(20), 1, TrafficClass::Maintenance, 3.0, 2.0);
        rec.node_down(min(30), 1);
        rec.set_standing(min(30), 1, TrafficClass::Maintenance, 0.0, 0.0);
        // Node 0: the owner zeroes the rate on the way down.
        rec.node_down(min(50), 0);
        rec.set_standing(min(50), 0, TrafficClass::Overlay, 0.0, 0.0);
        rec.node_up(min(55), 0);
        rec.set_standing(min(55), 0, TrafficClass::Overlay, 4.0, 8.0);
        // A rate re-registered unchanged closes nothing.
        rec.set_standing(min(57), 0, TrafficClass::Overlay, 4.0, 8.0);
        let report = rec.finish(min(90));

        let (ov, mt) = (
            TrafficClass::Overlay as usize,
            TrafficClass::Maintenance as usize,
        );
        let n0_tx = [10 * 50 * 60 + 4 * 5 * 60, 4 * 30 * 60];
        let n0_rx = [5 * 50 * 60 + 8 * 5 * 60, 8 * 30 * 60];
        let (n1_tx, n1_rx) = (10 * 60 + 3 * 10 * 60, 10 * 60 + 2 * 10 * 60);
        assert_eq!(report.tx_hours.len(), 2);
        for h in 0..2 {
            assert_eq!(report.tx_hours[h].bytes[ov], n0_tx[h], "tx hour {h}");
            assert_eq!(report.rx_hours[h].bytes[ov], n0_rx[h], "rx hour {h}");
        }
        assert_eq!(report.tx_hours[0].bytes[mt], n1_tx);
        assert_eq!(report.rx_hours[0].bytes[mt], n1_rx);
        assert_eq!(report.tx_hours[1].bytes[mt], 0);
        assert_eq!(report.total_tx[ov], n0_tx[0] + n0_tx[1]);
        assert_eq!(report.total_tx[mt], n1_tx);
        // One sample per (node, hour), bytes over the nominal hour.
        let samples = |bytes: [u64; 4]| {
            let mut s = bytes.map(|b| b as f32 / 3600.0);
            s.sort_by(f32::total_cmp);
            s
        };
        assert_eq!(
            report.tx_samples_sorted,
            samples([n0_tx[0], n0_tx[1], n1_tx, 0])
        );
        assert_eq!(
            report.rx_samples_sorted,
            samples([n0_rx[0], n0_rx[1], n1_rx, 0])
        );
    }

    #[test]
    fn standing_spans_hour_boundaries() {
        let mut rec = BandwidthRecorder::new(1, false);
        rec.set_standing(Time::ZERO, 0, TrafficClass::Maintenance, 1.0, 1.0);
        rec.node_up(Time::ZERO, 0);
        let report = rec.finish(Time::ZERO + Duration::from_hours(3));
        let per_hour: Vec<u64> = report
            .tx_hours
            .iter()
            .map(|h| h.bytes[TrafficClass::Maintenance as usize])
            .collect();
        assert_eq!(per_hour, vec![3600, 3600, 3600]);
    }

    #[test]
    fn per_online_bps() {
        let agg = HourAggregate {
            bytes: [0, 7200, 0],
            online_node_us: 2 * Duration::HOUR.as_micros(),
        };
        // 7200 bytes over an hour shared by 2 online nodes = 1 B/s each.
        assert!((agg.per_online_bps(TrafficClass::Maintenance) - 1.0).abs() < 1e-9);
        assert!((agg.total_per_online_bps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_and_zero_fraction() {
        let report = BandwidthReport {
            tx_samples_sorted: vec![0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            ..Default::default()
        };
        assert_eq!(report.tx_percentile(0.0), 0.0);
        assert_eq!(report.tx_percentile(100.0), 8.0);
        assert_eq!(report.tx_percentile(50.0), 4.0); // round(0.5 * 9) = 5th element
        assert!((report.tx_zero_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn partial_final_hour_is_flushed() {
        let mut rec = BandwidthRecorder::new(1, false);
        rec.node_up(Time::ZERO, 0);
        rec.record_tx(
            Time::ZERO + Duration::from_mins(90),
            0,
            TrafficClass::Query,
            100,
        );
        let report = rec.finish(Time::ZERO + Duration::from_mins(100));
        assert_eq!(report.tx_hours.len(), 2);
        assert_eq!(report.tx_hours[1].bytes[TrafficClass::Query as usize], 100);
    }

    /// Report totals must equal the sum of the per-hour series — for a
    /// run ending mid-hour with a standing flow, and for traffic recorded
    /// exactly at an end-of-run hour boundary (the historical leak).
    #[test]
    fn totals_equal_sum_of_hour_series() {
        // Mid-hour end: events plus a standing rate, node churn included.
        let mut rec = BandwidthRecorder::new(2, true);
        rec.set_standing(Time::ZERO, 0, TrafficClass::Overlay, 4.0, 2.0);
        rec.node_up(Time::ZERO, 0);
        rec.node_up(Time::ZERO, 1);
        rec.record_tx(
            Time::ZERO + Duration::from_mins(20),
            1,
            TrafficClass::Query,
            500,
        );
        rec.record_tx(
            Time::ZERO + Duration::from_mins(80),
            0,
            TrafficClass::Maintenance,
            900,
        );
        rec.node_down(Time::ZERO + Duration::from_mins(85), 1);
        let end = Time::ZERO + Duration::from_mins(90);
        let report = rec.finish(end);
        assert_eq!(report.tx_hours.len(), 2, "whole hour plus partial hour");
        for c in 0..NUM_CLASSES {
            let series: u64 = report.tx_hours.iter().map(|h| h.bytes[c]).sum();
            assert_eq!(series, report.total_tx[c], "class {c}");
        }
        // Standing flow: node 0 up for the whole 90 minutes at 4 B/s.
        assert_eq!(report.total_tx[TrafficClass::Overlay as usize], 4 * 90 * 60);

        // Boundary end: bytes recorded exactly at t = 1 h, run ends there.
        let mut rec = BandwidthRecorder::new(1, false);
        rec.node_up(Time::ZERO, 0);
        let boundary = Time::ZERO + Duration::from_hours(1);
        rec.record_tx(boundary, 0, TrafficClass::Query, 77);
        let report = rec.finish(boundary);
        let series: u64 = report
            .tx_hours
            .iter()
            .map(|h| h.bytes[TrafficClass::Query as usize])
            .sum();
        assert_eq!(report.total_tx[TrafficClass::Query as usize], 77);
        assert_eq!(series, 77, "boundary-instant bytes must reach the series");
    }

    #[test]
    fn mean_per_online_accounts_standing_and_events() {
        let mut rec = BandwidthRecorder::new(1, false);
        rec.set_standing(Time::ZERO, 0, TrafficClass::Overlay, 2.0, 2.0);
        rec.node_up(Time::ZERO, 0);
        rec.record_tx(
            Time::ZERO + Duration::from_mins(10),
            0,
            TrafficClass::Overlay,
            3600,
        );
        let report = rec.finish(Time::ZERO + Duration::from_hours(1));
        // 2 B/s standing + 3600 B burst over 3600 online-seconds = 3 B/s.
        let mean = report.mean_tx_per_online_bps(TrafficClass::Overlay);
        assert!((mean - 3.0).abs() < 0.01, "mean {mean}");
        assert!((report.mean_tx_total_per_online_bps() - 3.0).abs() < 0.01);
    }
}

//! The five workloads. Each is one fixed simulated scenario whose inputs
//! are generated from the seed; the program under test receives only
//! those inputs. Queries are injected on a fixed simulated-time schedule
//! (open loop in simulated time); the simulator itself runs flat out.

mod engine_only;
mod federation;
mod storm;
mod traces;

use std::cell::{Cell, RefCell};
use std::time::Instant;

use seaweed_core::{ChaosOracle, Seaweed, SeaweedConfig, SeaweedEngine};
use seaweed_overlay::{Overlay, OverlayConfig};
use seaweed_sim::{CorpNetTopology, Engine, SimConfig};
use seaweed_types::{Duration, Time};

use crate::alloc;
use crate::drive::{drive, StoreProbe};
use crate::hostprobe::HostProbe;
use crate::ledger::{ns_since, Ledger, SpanLog};
use crate::outcome::{Outcome, Setup, Stage};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineOnly,
    FarsiteSteady,
    GnutellaChurn,
    QueryStorm,
    FederationPar,
}

/// Full size, or the tiny-N variant `run.sh --smoke` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::EngineOnly,
        Workload::FarsiteSteady,
        Workload::GnutellaChurn,
        Workload::QueryStorm,
        Workload::FederationPar,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineOnly => "engine_only",
            Workload::FarsiteSteady => "farsite_steady",
            Workload::GnutellaChurn => "gnutella_churn",
            Workload::QueryStorm => "query_storm",
            Workload::FederationPar => "federation_par",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition: set-up, then the timed scenario.
    #[must_use]
    pub fn run(self, seed: u64, size: Size, traced: bool, host: Option<&Host>) -> Outcome {
        self.repeat(Rep::begin(traced, false, host), seed, size)
    }

    /// Sets the workload up as [`Workload::run`] does, stops at the first
    /// timed event and tears it down: one more sample of set-up time.
    #[must_use]
    pub fn set_up(self, seed: u64, size: Size, host: Option<&Host>) -> Setup {
        self.repeat(Rep::begin(false, true, host), seed, size).setup
    }

    fn repeat(self, mut rep: Rep, seed: u64, size: Size) -> Outcome {
        let mut out = match self {
            Workload::EngineOnly => engine_only::run(&mut rep, seed, engine_only::full_size(size)),
            Workload::FarsiteSteady => traces::run(&mut rep, seed, traces::farsite(size)),
            Workload::GnutellaChurn => traces::run(&mut rep, seed, traces::gnutella(size)),
            Workload::QueryStorm => storm::run(&mut rep, seed, size),
            Workload::FederationPar => federation::run(&mut rep, seed, size),
        };
        rep.finish(&mut out);
        out
    }
}

/// What an untraced run measures beside its workload, to tell the host's
/// state from the program's speed: the host probe, and the engine-only
/// scenario at calibration size, run every few seconds from the first
/// repetition to the last so that some runs of it meet a quiet host.
pub struct Host {
    pub probe: HostProbe,
    seed: u64,
    size: Size,
    pub calibrations: RefCell<Vec<Outcome>>,
    last_calibration: Cell<Instant>,
}

/// Host seconds between calibration runs inside a timed phase.
const CALIBRATE_EVERY_S: f64 = 3.0;

impl Host {
    #[must_use]
    pub fn new(seed: u64, size: Size) -> Host {
        Host {
            probe: HostProbe::new(),
            seed,
            size,
            calibrations: RefCell::new(Vec::new()),
            last_calibration: Cell::new(Instant::now()),
        }
    }

    /// One run of the calibration scenario: the same-process score that
    /// normalises host times across machines, and `engine_only_s`.
    pub fn calibrate(&self) {
        let scenario = match self.size {
            Size::Full => engine_only::CALIBRATION,
            Size::Smoke => engine_only::full_size(Size::Smoke),
        };
        let mut rep = Rep::begin(false, false, None);
        let out = engine_only::run(&mut rep, self.seed, scenario);
        self.calibrations.borrow_mut().push(out);
        self.last_calibration.set(Instant::now());
    }

    fn calibrate_if_due(&self) {
        if self.last_calibration.get().elapsed().as_secs_f64() >= CALIBRATE_EVERY_S {
            self.calibrate();
        }
    }
}

/// Probe-kernel runs per probe sample.
const PROBE_RUNS: usize = 3;
/// Host seconds between probe samples inside a timed phase.
const PROBE_EVERY_S: f64 = 0.25;

/// Bookkeeping of one repetition: the span tree, the set-up clock, the
/// slices of the timed phase and the host-probe samples taken beside the
/// measurements.
pub struct Rep<'p> {
    pub epoch: Instant,
    pub traced: bool,
    /// Stop at the first timed event.
    pub setup_only: bool,
    pub spans: SpanLog,
    pub setup: Setup,
    root: usize,
    run_started: Option<Instant>,
    host: Option<&'p Host>,
    setup_probes: Vec<f64>,
    /// Host seconds of each slice of the timed phase: the stretches
    /// between probe points.
    slice_s: Vec<f64>,
    /// Where the current slice began.
    slice_started: Option<Instant>,
    last_probe: Instant,
    /// Host time spent in probe and calibration runs since the run
    /// started; not part of the timed phase.
    paused: std::time::Duration,
}

impl<'p> Rep<'p> {
    fn begin(traced: bool, setup_only: bool, host: Option<&'p Host>) -> Rep<'p> {
        let mut spans = SpanLog::default();
        let root = spans.push("workload", 0, 0, None);
        let mut rep = Rep {
            epoch: Instant::now(),
            traced,
            setup_only,
            spans,
            setup: Setup::default(),
            root,
            run_started: None,
            host,
            setup_probes: Vec::new(),
            slice_s: Vec::new(),
            slice_started: None,
            last_probe: Instant::now(),
            paused: std::time::Duration::ZERO,
        };
        rep.probe_point();
        rep.epoch = Instant::now();
        rep
    }

    /// A slice boundary. Workloads call it between slices of the timed
    /// phase (and once before and after); each slice's host time is
    /// recorded. If this repetition has a [`Host`], the probe is sampled
    /// when the last sample is [`PROBE_EVERY_S`] old, so the samples
    /// follow the host's speed through the phase, and a calibration is run
    /// when one is due. The time those take is not counted.
    pub fn probe_point(&mut self) {
        let t0 = Instant::now();
        if let Some(from) = self.slice_started {
            self.slice_s.push(t0.duration_since(from).as_secs_f64());
            self.slice_started = Some(t0);
        }
        let running = self.run_started.is_some();
        let Some(host) = self.host else { return };
        if running && t0.duration_since(self.last_probe).as_secs_f64() < PROBE_EVERY_S {
            return;
        }
        // A few back-to-back runs: one 5 ms run either is or is not cut
        // by a scheduler time slice; the mean of several is steadier.
        let sample =
            (0..PROBE_RUNS).map(|_| host.probe.run_once()).sum::<f64>() / PROBE_RUNS as f64;
        if running {
            host.calibrate_if_due();
            let now = Instant::now();
            self.paused += now.duration_since(t0);
            self.slice_started = Some(now);
            self.last_probe = now;
        } else {
            self.setup_probes.push(sample);
        }
    }

    /// Times one set-up stage and records it as a `setup.*` span.
    pub fn stage<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.setup.stage_s[stage as usize] += t1.duration_since(t0).as_secs_f64();
        self.spans.extend(
            stage.span_name(),
            ns_since(self.epoch, t0),
            ns_since(self.epoch, t1),
            Some(self.root),
        );
        out
    }

    /// Marks the end of set-up and the first timed event. Returns the
    /// ledger of a traced run.
    pub fn start_run(&mut self) -> Option<Ledger> {
        let setup_ended = Instant::now();
        self.probe_point();
        self.start_run_at(setup_ended, Instant::now())
    }

    /// As [`Rep::start_run`], for a run whose set-up ended and whose
    /// first event ran on other threads; the caller sampled the probe
    /// just before handing over to them.
    pub fn start_run_at(&mut self, setup_ended: Instant, run_started: Instant) -> Option<Ledger> {
        self.setup.total_s = setup_ended.duration_since(self.epoch).as_secs_f64();
        self.setup.probe_s = mean(&self.setup_probes);
        self.run_started = Some(run_started);
        self.slice_started = Some(run_started);
        self.last_probe = run_started;
        self.traced.then(|| Ledger::new(self.epoch))
    }

    /// Host seconds of the timed phase up to `end`, probe runs excluded.
    #[must_use]
    pub fn run_seconds(&self, end: Instant) -> f64 {
        (end.duration_since(self.run_started.expect("run started")) - self.paused).as_secs_f64()
    }

    /// Host seconds of each slice of the timed phase so far.
    #[must_use]
    pub fn slice_s(&self) -> Vec<f64> {
        self.slice_s.clone()
    }

    fn finish(self, out: &mut Outcome) {
        let mut spans = self.spans;
        let start = self.run_started.map_or(0, |t| ns_since(self.epoch, t));
        let end = start + (out.run_s * 1e9) as u64;
        spans.spans[self.root].end_ns = end;
        spans.spans[self.root].busy_ns = end;
        let run = spans.push("run", start, end, Some(self.root));
        if let Some(ledger) = &out.ledger {
            spans
                .windows
                .extend(ledger.windows.iter().map(|w| (run, w.clone())));
        }
        out.spans = spans;
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Topology, overlay ids, protocol state and engine for an `n`-endsystem
/// single-engine stack, timed as set-up stages.
fn build_stack<P: StoreProbe>(
    rep: &mut Rep,
    n: usize,
    seed: u64,
    provider: P,
    cfg: SeaweedConfig,
) -> (Seaweed<P>, SeaweedEngine) {
    let topo = rep.stage(Stage::Topology, || CorpNetTopology::new(n, seed));
    rep.stage(Stage::Overlay, || {
        let eng: SeaweedEngine = Engine::new(
            Box::new(topo),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        );
        let overlay = Overlay::new(
            Overlay::random_ids(n, seed),
            OverlayConfig {
                seed,
                ..OverlayConfig::default()
            },
        );
        (Seaweed::new(overlay, provider, cfg), eng)
    })
}

/// Runs the stack until simulated time `until` in slices of `step`, each
/// ending in a slice boundary; returns events handled. Where the
/// boundaries fall changes nothing in the simulation.
fn drive_sliced<P: StoreProbe>(
    rep: &mut Rep,
    sw: &mut Seaweed<P>,
    eng: &mut SeaweedEngine,
    until: Time,
    step: Duration,
    mut ledger: Option<&mut Ledger>,
) -> u64 {
    let mut events = 0;
    loop {
        let next = (eng.now() + step).min(until);
        events += drive(sw, eng, next, ledger.as_deref_mut());
        rep.probe_point();
        if next >= until {
            return events;
        }
    }
}

/// splitmix64: seed-derived per-endsystem draws for the synthetic data
/// and neighbour tables. Callers hash the seed before XOR-ing a small
/// index into it: `seed ^ r` alone gives seeds 1 and 2 the same set of
/// draws in another order.
#[must_use]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Resident set size now, MB; 0 where `/proc` is absent.
#[must_use]
pub fn rss_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a single-engine workload's timed phase leaves behind.
struct Ran {
    /// Whether a `ChaosOracle` finding makes the run incorrect.
    oracle_gates: bool,
    events: u64,
    ledger: Option<Ledger>,
    end: Instant,
    rss_after_setup_mb: f64,
}

/// The fields every single-engine full-stack workload fills the same
/// way once its run is over. `population_rows` bounds any query's rows.
fn finish_stack<P: StoreProbe>(
    rep: &Rep,
    sw: &Seaweed<P>,
    eng: SeaweedEngine,
    population_rows: u64,
    ran: Ran,
) -> Outcome {
    let Ran {
        oracle_gates,
        events,
        mut ledger,
        end,
        rss_after_setup_mb,
    } = ran;
    if let Some(l) = ledger.as_mut() {
        l.finish(end);
    }
    let run_s = rep.run_seconds(end);
    let mut out = Outcome::blank(eng.num_nodes(), rep.setup, rss_after_setup_mb);
    out.run_s = run_s;
    out.slice_s = rep.slice_s();
    out.events = events;
    out.messages = eng.messages_sent;
    out.overlay = sw.overlay.stats;
    out.core = sw.stats;
    let findings = ChaosOracle::new(population_rows).check(sw, &eng);
    if oracle_gates {
        out.violations = findings;
    } else {
        out.oracle_notes = findings;
    }
    if rep.traced {
        out.heap_after_run = alloc::live_bytes();
    }
    out.ledger = ledger;
    out.take_report(&eng.finish());
    out
}

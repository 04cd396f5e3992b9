//! The Seaweed protocol state machine.
//!
//! One [`Seaweed`] value holds the protocol state of *every* endsystem in
//! the simulation (the simulator is monolithic; see DESIGN.md). State is
//! strictly partitioned per endsystem except for three documented global
//! registries that stand in for state the real system persists or
//! replicates:
//!
//! * the **query registry** — in the real system every endsystem that has
//!   seen a query stores its text and origin; we store one copy and track
//!   per-endsystem knowledge in a bitmask;
//! * **metadata contents** — replica holders store copies of summaries
//!   and availability models; contents are identical everywhere, so we
//!   store them once and track *who holds what* exactly (a holder that
//!   never received a push cannot answer);
//! * **vertex state** — aggregation-tree vertices are replica groups; we
//!   store each vertex's child map once plus its live holder set, and the
//!   state is lost if every holder fails, exactly as in the real system.

mod backoff;
mod disseminate;
mod metadata;
mod results;
mod storage;
mod storm;

pub use storm::{StormConfig, Submission};

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seaweed_availability::{AvailabilityModel, ReplyLatencyStats};
use seaweed_overlay::{is_overlay_tag, Overlay, OverlayEvent, OverlayEvents, OverlayMsg};
use seaweed_sim::{Engine, Event, EventLog, NodeIdx};
use seaweed_store::{Aggregate, BoundQuery, Query};
use seaweed_types::{sha1, Duration, Id, IdRange, Time};

use crate::obs::QueryTimeline;
use crate::predictor::Predictor;
use crate::provider::DataProvider;
use storage::{ActionSlab, NodeQueryStore, SubmitStore, TaskStore, VertexStore};

/// Engine type the full Seaweed stack runs on.
pub type SeaweedEngine = Engine<OverlayMsg<SeaweedMsg>>;

/// Handle to an injected query: a slot index in the low `SLOT_BITS` (8)
/// bits plus a per-slot generation counter above. The generation
/// invalidates every handle minted for a query once its slot is recycled
/// (storm mode retires and reuses slots), so late traffic addressed to a
/// dead query can never attribute work to its slot's next tenant. A slot
/// is recycled only between events, so within one handler a slot names
/// one query from entry to exit.
/// Without storm mode slots are never recycled, every generation is 0
/// and a handle is numerically the plain registry index it always was.
pub type QueryHandle = u32;

/// Low bits of a [`QueryHandle`] carrying the slot index. 8 bits cover
/// the 64-slot registry with room to spare; everything above is the
/// generation.
pub(crate) const SLOT_BITS: u32 = 8;

/// The slot index a handle addresses (valid whatever its generation).
#[inline]
#[must_use]
pub(crate) fn slot_of(h: QueryHandle) -> u32 {
    h & ((1 << SLOT_BITS) - 1)
}

/// The generation a handle was minted under.
#[inline]
#[must_use]
pub(crate) fn gen_of(h: QueryHandle) -> u32 {
    h >> SLOT_BITS
}

/// Packs a slot and generation into a handle. Generation 0 handles are
/// numerically equal to their slot, which keeps every pre-storm Debug
/// rendering, fingerprint and bitmask byte-identical.
#[inline]
#[must_use]
pub(crate) fn make_handle(slot: u32, generation: u32) -> QueryHandle {
    (generation << SLOT_BITS) | slot
}

/// Handle to a registered replicated view.
pub type ViewHandle = u32;

/// A registered replicated view: a NOW()-free single-table aggregate
/// every endsystem pre-computes and replicates with its metadata.
#[derive(Debug)]
pub struct ViewDef {
    pub text: String,
    pub bound: BoundQuery,
}

/// Seaweed protocol messages (application payloads over the overlay).
/// `Clone` lets the engine's fault layer deliver duplicated copies.
#[derive(Clone, Debug)]
pub enum SeaweedMsg {
    /// Periodic / on-join metadata push from `owner` to a replica-set
    /// member.
    MetaPush { owner: NodeIdx },
    /// Query dissemination for a namespace range; `parent` is where the
    /// range's predictor must be reported.
    Disseminate {
        query: QueryHandle,
        range: IdRange,
        parent: NodeIdx,
    },
    /// Aggregated predictor for `range`, child → parent in the
    /// dissemination tree. The predictor is boxed, though at 40 bytes it
    /// would fit inline without making this the largest variant: `perf/`'s
    /// message classifier builds the variant with `Box::new`.
    PredictorReport {
        query: QueryHandle,
        range: IdRange,
        predictor: Box<Predictor>,
    },
    /// The aggregated predictor arriving at the query's origin (boxed
    /// like [`SeaweedMsg::PredictorReport`]'s).
    PredictorToOrigin {
        query: QueryHandle,
        predictor: Box<Predictor>,
    },
    /// Aggregated replicated-view values for `range`, child → parent in
    /// the dissemination tree (view queries only).
    ViewReport {
        query: QueryHandle,
        range: IdRange,
        agg: Aggregate,
        endsystems: u64,
    },
    /// The aggregated view answer arriving at the query's origin.
    ViewToOrigin {
        query: QueryHandle,
        agg: Aggregate,
        endsystems: u64,
    },
    /// A partial aggregate submitted to aggregation-tree vertex `vertex`.
    ResultSubmit {
        query: QueryHandle,
        vertex: Id,
        child: Id,
        version: u64,
        agg: Aggregate,
    },
    /// Ack of a result submission (primary → submitter).
    ResultAck {
        query: QueryHandle,
        vertex: Id,
        child: Id,
        version: u64,
    },
    /// Vertex state replication to a backup group member.
    VertexReplicate { query: QueryHandle, vertex: Id },
    /// The root vertex's current aggregate pushed to the query origin.
    ResultToOrigin {
        query: QueryHandle,
        agg: Aggregate,
        version: u64,
    },
    /// A newly joined endsystem asking a neighbor for active queries.
    QueryListPull,
    /// The active-query list.
    QueryListPush { queries: Vec<QueryHandle> },
}

impl SeaweedMsg {
    /// The one query handle the message carries. `QueryListPush` carries
    /// a list, not one, and the metadata messages carry none.
    fn query_handle_mut(&mut self) -> Option<&mut QueryHandle> {
        use SeaweedMsg as M;
        match self {
            M::MetaPush { .. } | M::QueryListPull | M::QueryListPush { .. } => None,
            M::Disseminate { query, .. }
            | M::PredictorReport { query, .. }
            | M::PredictorToOrigin { query, .. }
            | M::ViewReport { query, .. }
            | M::ViewToOrigin { query, .. }
            | M::ResultSubmit { query, .. }
            | M::ResultAck { query, .. }
            | M::VertexReplicate { query, .. }
            | M::ResultToOrigin { query, .. } => Some(query),
        }
    }
}

// Every queued engine event — message or timer — is sized by the largest
// `SeaweedMsg` variant, and a query storm keeps hundreds of thousands of
// them in flight. Keep a payload that would be the largest variant behind
// a `Box` so the queue's working set stays lean; this tripped at 656
// bytes once, with a predictor inline, and cost ~5× the event-queue memory.
const _: () = assert!(std::mem::size_of::<SeaweedMsg>() <= 128);
// A predictor is its immediate rows, its endsystem count and a `Vec` of
// the delay buckets it has touched; the protocol keeps it by value (in a
// task's accumulator and its parent's slot), and only a message boxes it.
const _: () = assert!(std::mem::size_of::<Predictor>() == 40);

/// Aggregation-vertex replica group size m, primary included (paper: 3).
const M_VERTEX: usize = 3;
/// Mean metadata push period (paper: 17.5 min average, randomized
/// phase).
pub const PUSH_PERIOD: Duration = Duration::from_secs(1050);
/// Timeout before a dissemination parent reissues a silent subrange.
const DISSEM_TIMEOUT: Duration = Duration::from_secs(5);
/// Maximum reissues per subrange before giving up.
const MAX_REISSUES: u8 = 2;
/// Local processing delay between receiving a query and submitting the
/// locally executed result.
const LOCAL_EXEC_DELAY: Duration = Duration::from_millis(100);

/// Seaweed configuration; defaults are the paper's (§4.3.1). What no
/// experiment varies is a constant above (DESIGN.md §3 says which
/// ablation varies each field left here).
#[derive(Clone, Debug)]
pub struct SeaweedConfig {
    /// Metadata replication factor k (paper: 8).
    pub k_metadata: usize,
    /// Initial timeout before an unacked result submission is
    /// retransmitted; doubles per retry (with seeded jitter) up to
    /// [`result_retry_cap`](Self::result_retry_cap).
    pub result_retry: Duration,
    /// Ceiling of the result-retransmission backoff. Setting it equal to
    /// `result_retry` degenerates to the fixed-interval retry.
    pub result_retry_cap: Duration,
    /// Tail tolerance (DESIGN.md §3.5): when a delegated subrange stays
    /// silent past the expected-reply quantile, duplicate the task to a
    /// backup cover candidate instead of waiting out the full reissue
    /// timeout; divert a reissue whose owner-side replica is down to the
    /// nearest live candidate; and re-kick a query whose root went
    /// silent. `None` (the default) disables all three.
    pub hedge: Option<HedgeConfig>,
    /// Concurrent multi-query (storm) mode: admission control at the
    /// injection point, slot recycling behind handle generations, and
    /// the per-endsystem quantum scan scheduler. `None` (the default)
    /// disables all of it and preserves the single-query event stream
    /// bit-for-bit; even with it on, an uncontended endsystem executes
    /// exactly the baseline path.
    pub storm: Option<StormConfig>,
    pub seed: u64,
}

/// Reply-latency quantile a delegator waits for before hedging: p90 of
/// its observed reply distribution.
const HEDGE_QUANTILE: f64 = 0.9;
/// Minimum completed-reply observations before the latency model is
/// trusted for the quantile estimate.
const HEDGE_MIN_SAMPLES: u64 = 4;

/// Tuning for hedged dissemination (tail-tolerant querying).
#[derive(Clone, Debug)]
pub struct HedgeConfig {
    /// Hedge delay as a fraction of `DISSEM_TIMEOUT` while the delegator
    /// has fewer than `HEDGE_MIN_SAMPLES` observations.
    pub fallback_fraction: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            fallback_fraction: 0.5,
        }
    }
}

impl Default for SeaweedConfig {
    fn default() -> Self {
        SeaweedConfig {
            k_metadata: 8,
            result_retry: Duration::from_secs(10),
            result_retry_cap: Duration::from_secs(160),
            hedge: None,
            storm: None,
            seed: 0,
        }
    }
}

/// One-shot (the paper's focus) or continuous (§3.4's outlined
/// extension) execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// Executed once per endsystem, results persist until the TTL.
    OneShot,
    /// Re-executed by every endsystem each `interval`, with `NOW()`
    /// re-bound per epoch; the aggregation tree's versioned child maps
    /// keep exactly the latest epoch per endsystem, so the origin sees a
    /// rolling aggregate. Epochs mix briefly at interval boundaries —
    /// the same dilated-snapshot semantics as the one-shot case.
    Continuous { interval: Duration },
    /// Answered entirely from *replicated view values* (§3.2.2's
    /// selective replication): every endsystem pre-computes the
    /// registered view's aggregate and replicates it with its metadata,
    /// so the query covers the whole population — including currently
    /// unavailable endsystems, at push-period staleness — within
    /// seconds, with no local execution phase.
    View { view: ViewHandle },
}

/// Origin-side view of one query.
#[derive(Debug)]
pub struct QueryState {
    pub id: Id,
    pub text: String,
    pub bound: BoundQuery,
    pub kind: QueryKind,
    /// Schema kept for per-epoch re-binding of continuous queries.
    pub schema: seaweed_store::Schema,
    pub origin: NodeIdx,
    pub injected: Time,
    pub expires: Time,
    pub active: bool,
    /// Aggregated completeness predictor, once it arrives.
    pub predictor: Option<Predictor>,
    /// When the predictor reached the origin (§4.3.3 latency metric).
    pub predictor_at: Option<Time>,
    /// Latest full aggregate seen at the origin.
    pub latest: Option<Aggregate>,
    /// Root-vertex version of `latest` (suppresses reordered updates).
    pub latest_version: u64,
    /// History of `(time, rows folded in, finished value)` at the origin.
    pub progress: Vec<(Time, u64, Option<f64>)>,
    /// Full-range re-kicks the watchdog has issued for this query.
    pub kicks: u8,
}

impl QueryState {
    /// Rows folded into the latest result.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.latest.map_or(0, |a| a.rows)
    }

    /// Current completeness against the predictor's total estimate.
    #[must_use]
    pub fn completeness(&self) -> Option<f64> {
        let p = self.predictor.as_ref()?;
        let total = p.total_rows();
        if total <= 0.0 {
            return Some(1.0);
        }
        Some(self.rows() as f64 / total)
    }
}

/// Protocol counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeaweedStats {
    /// Metadata pushes to a replica-set member: periodic, join, hand-over
    /// and repair.
    pub meta_pushes: u64,
    /// Of those, the periodic pushes to a member already on the owner's
    /// holder list: charged through the engine's send path, not delivered
    /// as events (DESIGN.md "What is simulated, what is accounted").
    pub meta_pushes_accounted: u64,
    pub meta_repairs: u64,
    pub disseminate_msgs: u64,
    /// Application-payload bytes of dissemination messages (excluding
    /// per-hop overlay overhead).
    pub dissem_bytes: u64,
    /// Application-payload bytes of predictor reports.
    pub predictor_bytes: u64,
    pub dissem_reissues: u64,
    pub predictor_reports: u64,
    pub predictions_for_unavailable: u64,
    pub uncovered_unavailable: u64,
    pub result_submissions: u64,
    pub result_retries: u64,
    /// Local executions that failed at the provider; the contribution is
    /// dropped (and shows up as incompleteness), never a crash.
    pub exec_failures: u64,
    /// Vertex-state pushes to a backup, recruiting or refreshing.
    pub vertex_replications: u64,
    /// Of those, the pushes to a replica already in the primary's holder
    /// list: charged through the engine's send path, not delivered as
    /// events (DESIGN.md "What is simulated, what is accounted").
    pub replicas_accounted: u64,
    pub vertex_states_lost: u64,
    pub results_at_origin: u64,
    /// Crash-with-amnesia transitions (soft state wiped, unlike a clean
    /// shutdown/rejoin).
    pub amnesia_crashes: u64,
    /// Dissemination subranges abandoned after exhausting reissues.
    pub dissem_give_ups: u64,
    /// Backup dissemination sends issued by the hedging machinery.
    pub hedges_sent: u64,
    /// Hedged slots where the backup's reply arrived first.
    pub hedge_wins: u64,
    /// Hedged slots where the primary replied first (the hedge send was
    /// pure overhead).
    pub hedge_losses: u64,
    /// Application-payload bytes spent on hedges that lost the race,
    /// plus the loser's duplicate reply when it eventually lands.
    pub hedge_wasted_bytes: u64,
    /// Full-range dissemination re-kicks issued by the origin-side
    /// watchdog (the kickoff message is otherwise unretried).
    pub query_kicks: u64,
    /// Queries admitted into the bounded in-flight budget (storm mode;
    /// counts immediate admissions and queue promotions alike).
    pub storm_admitted: u64,
    /// Submissions parked in the deterministic admission queue because
    /// the in-flight budget was full.
    pub storm_queued: u64,
    /// Queued submissions abandoned at admission time (origin no longer
    /// up and joined, or the deferred bind failed).
    pub storm_dropped: u64,
    /// Messages and timer actions dropped because their handle's
    /// generation no longer matches the slot — late traffic for a
    /// retired query whose slot was recycled.
    pub stale_handle_drops: u64,
    /// Scan-scheduler quanta executed (one per pump-timer fire that
    /// found work).
    pub scan_quanta: u64,
    /// Shared table passes that served two or more co-resident queries.
    pub shared_scan_batches: u64,
    /// Query executions completed through shared passes (only counted
    /// when the pass actually batched, i.e. served ≥ 2).
    pub shared_scan_queries: u64,
    /// Messages dropped on a message-driven path whose internal
    /// invariant did not hold (the panic-free alternative to `expect`):
    /// always 0 in a healthy run, and a red flag — not routine churn
    /// fallout — when not.
    pub internal_drops: u64,
}

/// Deferred actions carried by application timers.
#[derive(Debug)]
pub(crate) enum TimerAction {
    MetaPush {
        node: NodeIdx,
    },
    /// A task's reissue deadline, at the endsystem that holds the task
    /// (`task.0`), for the round it was armed in.
    DissemTimeout {
        task: TaskKey,
        round: u32,
    },
    /// The expected-reply quantile elapsed with subranges still silent:
    /// duplicate them to backup cover candidates. Armed only when
    /// `SeaweedConfig::hedge` is set; otherwise as `DissemTimeout`.
    HedgeTimeout {
        task: TaskKey,
        round: u32,
    },
    /// No aggregated result has reached the origin within the reissue
    /// timeout: re-kick the full-range dissemination. The kickoff is a
    /// single unretried message and the query root's task dies with the
    /// root (crash-with-amnesia), so without this watchdog an unlucky
    /// root crash silences the whole query. Armed only when tail
    /// tolerance is active; a no-op once the report has arrived.
    QueryKick {
        node: NodeIdx,
        query: QueryHandle,
    },
    ExecuteLocal {
        node: NodeIdx,
        query: QueryHandle,
    },
    /// The earliest retransmission deadline among `node`'s unacked
    /// submissions has come (one timer per endsystem, not one per
    /// submission); a no-op unless it is the timer `retry_armed` records.
    ResultRetry {
        node: NodeIdx,
    },
    QueryExpire {
        query: QueryHandle,
    },
    /// A scan-scheduler quantum elapsed at `node`: advance the node's
    /// queued local executions by one fair round (storm mode only).
    ScanQuantum {
        node: NodeIdx,
    },
}

impl TimerAction {
    /// The node whose liveness this action is tied to; `None` for
    /// actions that must survive churn (query expiry).
    pub(crate) fn node(&self) -> Option<NodeIdx> {
        match *self {
            TimerAction::MetaPush { node }
            | TimerAction::QueryKick { node, .. }
            | TimerAction::ExecuteLocal { node, .. }
            | TimerAction::ResultRetry { node }
            | TimerAction::ScanQuantum { node } => Some(node),
            TimerAction::DissemTimeout { task, .. } | TimerAction::HedgeTimeout { task, .. } => {
                Some(NodeIdx(task.0))
            }
            TimerAction::QueryExpire { .. } => None,
        }
    }

    /// The one query handle the action carries, if any. Handlers arm and
    /// handle actions by bare slot; while an action is parked the field
    /// holds the wire handle (slot plus the generation it was armed
    /// under), as a message in flight does, and the fire checks it the
    /// same way (`Seaweed::on_app_timer`).
    fn query_handle_mut(&mut self) -> Option<&mut QueryHandle> {
        match self {
            TimerAction::DissemTimeout { task, .. } | TimerAction::HedgeTimeout { task, .. } => {
                Some(&mut task.1)
            }
            TimerAction::QueryKick { query, .. }
            | TimerAction::ExecuteLocal { query, .. }
            | TimerAction::QueryExpire { query } => Some(query),
            TimerAction::MetaPush { .. }
            | TimerAction::ResultRetry { .. }
            | TimerAction::ScanQuantum { .. } => None,
        }
    }
}

/// An endsystem's current `ResultRetry` timer: the tag its action is
/// parked under and the instant it fires. A retry timer that fires under
/// another tag was superseded by an earlier deadline and does nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArmedRetry {
    pub tag: u64,
    pub at: Time,
}

/// Key of a dissemination task: (node, query, range start, range width —
/// 0 encodes the full namespace). Width matters: a subrange shares its
/// parent's start, and both can be live tasks at one node.
pub(crate) type TaskKey = (u32, QueryHandle, u128, u128);

/// What a dissemination subtree reports upward: a completeness predictor
/// (normal queries) or a partial aggregate over replicated view values
/// (view queries, the §3.2.2 selective-replication extension). Both are
/// constant-size and merge element-wise, so the same tree machinery
/// carries either.
#[derive(Debug, Clone)]
pub(crate) enum RangeResult {
    Predictor(Predictor),
    /// `(aggregate, endsystems covered)`.
    View(Aggregate, u64),
}

impl RangeResult {
    pub(crate) fn merge(&mut self, other: &RangeResult) {
        match (self, other) {
            (RangeResult::Predictor(a), RangeResult::Predictor(b)) => a.merge(b),
            (RangeResult::View(a, na), RangeResult::View(b, nb)) => {
                a.merge(b);
                *na += nb;
            }
            _ => debug_assert!(false, "mixed range-result kinds"),
        }
    }
}

/// One dissemination task at one node: a received range being split,
/// estimated and reported.
#[derive(Debug)]
pub(crate) struct DissemTask {
    pub parent: Option<NodeIdx>,
    /// Additional delegators that handed us the same range (hedges and
    /// availability-aware re-routes can converge on one executor); every
    /// report fans out to these too. Always empty with tail tolerance
    /// off — the baseline swallows duplicate delegations silently.
    pub extra_parents: Vec<NodeIdx>,
    pub range: IdRange,
    /// Outstanding subranges delegated to other nodes.
    pub slots: Vec<SubrangeSlot>,
    /// Locally accumulated result (own contribution + dead ranges).
    pub local: RangeResult,
    pub reported: bool,
    /// Timer rounds started since the task was created: each reissue
    /// round, and each re-cover at a partition heal, starts one. Its
    /// `DissemTimeout` and `HedgeTimeout` carry the round they were armed
    /// in, and one from an earlier round fires as a no-op.
    pub round: u32,
}

impl DissemTask {
    /// Whether a timer armed in `round` is still current: the task has
    /// not reported and has started no later round.
    pub(crate) fn awaits(&self, round: u32) -> bool {
        !self.reported && self.round == round
    }
}

#[derive(Debug)]
pub(crate) struct SubrangeSlot {
    pub range: IdRange,
    pub done: Option<RangeResult>,
    pub reissues: u8,
    /// When the current outstanding delegation was (re)sent; feeds the
    /// per-delegator reply-latency model on fill.
    pub sent_at: Time,
    /// Backup cover candidate this slot was hedged to, if any. At most
    /// one hedge per slot.
    pub hedge: Option<NodeIdx>,
}

/// Aggregation-tree vertex state (a replica group's contents).
#[derive(Debug, Default)]
pub(crate) struct VertexState {
    /// child key -> (version, partial aggregate).
    pub children: BTreeMap<Id, (u64, Aggregate)>,
    /// Live group members; index 0 acts as primary.
    pub holders: Vec<NodeIdx>,
    /// Version of the last aggregate propagated upward.
    pub out_version: u64,
}

impl VertexState {
    /// The children folded into `empty` in ascending key order — the one
    /// order, because f64 merges do not commute bit-for-bit.
    pub(crate) fn merged(&self, empty: Aggregate) -> Aggregate {
        let mut m = empty;
        for (_, a) in self.children.values() {
            m.merge(a);
        }
        m
    }
}

/// A pending (unacked) upward submission from a vertex or leaf, keyed by
/// `(submitting node, query, child key)` — one node can have several in
/// flight per query (its own leaf plus vertices it primaries).
#[derive(Debug)]
pub(crate) struct PendingSubmit {
    pub target_vertex: Id,
    pub version: u64,
    pub agg: Aggregate,
    /// Retransmissions so far; drives the exponential backoff.
    pub attempts: u32,
    /// When to retransmit if no ack has arrived by then.
    pub retry_at: Time,
}

/// The full Seaweed protocol state over all endsystems.
pub struct Seaweed<P: DataProvider> {
    pub cfg: SeaweedConfig,
    pub overlay: Overlay,
    pub provider: P,

    // ---- metadata plane ----
    pub(crate) models: Vec<AvailabilityModel>,
    pub(crate) down_since: Vec<Option<Time>>,
    /// Who currently holds each owner's metadata.
    pub(crate) holders: Vec<Vec<NodeIdx>>,
    /// Reverse index: owners whose metadata each node holds.
    pub(crate) held_by: Vec<Vec<NodeIdx>>,

    // ---- query plane ----
    pub(crate) queries: Vec<QueryState>,
    /// Lifecycle timelines, parallel to `queries`. Pure observation:
    /// never read by protocol decisions.
    pub(crate) timelines: Vec<QueryTimeline>,
    pub(crate) query_by_id: BTreeMap<Id, QueryHandle>,
    /// Bitmask per node of queries it has seen (bit = handle).
    pub(crate) knows_query: Vec<u64>,
    /// Bitmask per node of queries whose result it has submitted (acked).
    pub(crate) submitted: Vec<u64>,
    /// Bitmask per node of queries whose local execution is scheduled or
    /// in flight.
    pub(crate) exec_pending: Vec<u64>,
    pub(crate) tasks: TaskStore,
    pub(crate) vertices: VertexStore,
    pub(crate) node_vertices: Vec<Vec<(QueryHandle, Id)>>,
    pub(crate) pending_submits: SubmitStore,
    /// Latest epoch each endsystem has executed for a continuous query.
    pub(crate) cont_epoch: NodeQueryStore<u64>,
    /// The aggregation-tree vertex each endsystem persisted for its leaf
    /// submissions (§3.4: "It then persists that vertexId with the
    /// query") — reused across availability sessions so a rejoining
    /// endsystem updates the *same* child slot instead of forking a new
    /// tree path. Survives crash-amnesia: it is persisted with the
    /// query, not soft state.
    pub(crate) leaf_targets: NodeQueryStore<Id>,
    /// Dissemination subranges abandoned after exhausting reissues
    /// (`(issuing node, query, range)` in give-up order). A partition
    /// can swallow a whole subtree of the broadcast; at heal time each
    /// recorded range is re-issued so the endsystems behind the cut
    /// still learn the query and contribute results.
    pub(crate) gave_up: Vec<(NodeIdx, QueryHandle, IdRange)>,
    /// The emptied work stack of `handle_disseminate`, kept for its
    /// capacity. One owner at a time: this field between calls, the call
    /// splitting a range while it runs (it takes the buffer and hands it
    /// back empty); a call that found the field empty would allocate its
    /// own, and the later hand-back wins.
    pub(crate) split_stack: Vec<IdRange>,

    // ---- storm mode (concurrent multi-query) ----
    /// Per-slot generation counter, parallel to `queries`. Bumped when a
    /// slot is released for recycling; handles minted under an older
    /// generation are dropped at every message boundary. All zero (and
    /// never bumped) without storm mode.
    pub(crate) slot_gen: Vec<u32>,
    /// Released slots available for reuse, sorted descending so `pop()`
    /// yields the lowest slot first (deterministic recycling order). A
    /// slot joins it at the end of the event or call that retired its
    /// query. Always empty without storm mode.
    pub(crate) free_slots: Vec<u32>,
    /// Slots whose query was retired during the current event or call,
    /// released by [`Seaweed::reclaim_slots`] as it ends. Empty between
    /// events, and always empty without storm mode.
    pub(crate) retired: Vec<u32>,
    /// Submissions waiting for an in-flight slot, in ticket order.
    pub(crate) storm_queue: VecDeque<storm::QueuedSubmission>,
    /// Monotone ticket counter for queued submissions.
    pub(crate) storm_seq: u64,
    /// `(ticket, handle)` pairs admitted from the queue since the last
    /// [`Seaweed::drain_admissions`] call.
    pub(crate) admitted_log: Vec<(u64, QueryHandle)>,
    /// Per-endsystem scan-scheduler state (quantum queue + pump flag).
    /// Untouched without storm mode.
    pub(crate) scan: Vec<storm::ScanNode>,

    // ---- crash-amnesia bookkeeping ----
    /// Owners whose metadata a crashed node was holding when its soft
    /// state was wiped. Holder lists are pruned at crash time (the copies
    /// are gone *now*); the stash lets failure detection still run the
    /// re-replication repair for those owners. Cleared on rejoin.
    pub(crate) amnesia_meta: Vec<Vec<NodeIdx>>,
    /// Vertex groups a crashed node belonged to when its soft state was
    /// wiped; consumed by detection-time vertex repair. Cleared on
    /// rejoin.
    pub(crate) amnesia_vertices: Vec<Vec<(QueryHandle, Id)>>,

    // ---- replicated views (§3.2.2 selective replication) ----
    pub(crate) views: Vec<ViewDef>,
    /// `[view][node]` last value pushed with the node's metadata; `None`
    /// until its first push.
    pub(crate) view_values: Vec<Vec<Option<Aggregate>>>,

    // ---- timers ----
    pub(crate) timers: ActionSlab,
    /// Per endsystem, its current `ResultRetry` timer: it fires no
    /// later than the earliest `retry_at` in the endsystem's
    /// `pending_submits` bucket while that is non-empty.
    pub(crate) retry_armed: Vec<Option<ArmedRetry>>,

    // ---- tail tolerance ----
    /// Per-delegator observed reply-latency distributions; drives the
    /// hedge delay. Maintained passively even with hedging off (reads
    /// never influence the protocol unless `cfg.hedge` is set).
    pub(crate) reply_lat: ReplyLatencyStats,

    pub(crate) rng: StdRng,
    pub stats: SeaweedStats,
}

/// Manual impl: `P` (the data provider) need not be `Debug`, and the
/// per-endsystem state tables are enormous — summarize the registries.
impl<P: DataProvider> std::fmt::Debug for Seaweed<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Seaweed")
            .field("endsystems", &self.overlay.ids().len())
            .field("queries", &self.queries.len())
            .field("tasks", &self.tasks.len())
            .field("vertices", &self.vertices.len())
            .field("pending_submits", &self.pending_submits.len())
            .field("timers", &self.timers.len())
            .field("views", &self.views.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// RNG stream constant for the protocol layer's own draws (registered
/// in lint.toml `[[stream]]`): keeps the app's draw order decoupled
/// from the engine's and overlay's streams.
const APP_STREAM: u64 = 0x05ea_eeda_4400;

impl<P: DataProvider> Seaweed<P> {
    /// Builds the protocol layer over an overlay and data provider. All
    /// endsystems start down; drive the engine with an availability
    /// trace.
    #[must_use]
    pub fn new(overlay: Overlay, provider: P, cfg: SeaweedConfig) -> Self {
        let n = overlay.ids().len();
        // Hot-state container backend; the overlay's ring index (which
        // asserts id uniqueness) doubles as the ordered id universe for
        // range enumeration, so no separate id map is kept here.
        Seaweed {
            rng: StdRng::seed_from_u64(cfg.seed ^ APP_STREAM),
            models: (0..n).map(|_| AvailabilityModel::default()).collect(),
            cfg,
            overlay,
            provider,
            down_since: vec![Some(Time::ZERO); n],
            holders: vec![Vec::new(); n],
            held_by: vec![Vec::new(); n],
            queries: Vec::new(),
            timelines: Vec::new(),
            query_by_id: BTreeMap::new(),
            knows_query: vec![0; n],
            submitted: vec![0; n],
            exec_pending: vec![0; n],
            tasks: TaskStore::new(n),
            vertices: VertexStore::default(),
            node_vertices: vec![Vec::new(); n],
            pending_submits: SubmitStore::new(n),
            cont_epoch: NodeQueryStore::new(n),
            leaf_targets: NodeQueryStore::new(n),
            gave_up: Vec::new(),
            split_stack: Vec::new(),
            slot_gen: Vec::new(),
            free_slots: Vec::new(),
            retired: Vec::new(),
            storm_queue: VecDeque::new(),
            storm_seq: 0,
            admitted_log: Vec::new(),
            scan: vec![storm::ScanNode::default(); n],
            amnesia_meta: vec![Vec::new(); n],
            amnesia_vertices: vec![Vec::new(); n],
            views: Vec::new(),
            view_values: Vec::new(),
            timers: ActionSlab::new(n),
            retry_armed: vec![None; n],
            reply_lat: ReplyLatencyStats::new(n),
            stats: SeaweedStats::default(),
        }
    }

    /// Read access to a query's origin-side state. Panics if the
    /// handle's slot was recycled (the state it referred to is gone).
    #[must_use]
    pub fn query(&self, h: QueryHandle) -> &QueryState {
        assert_eq!(
            gen_of(h),
            self.slot_gen[slot_of(h) as usize],
            "stale query handle: slot was recycled"
        );
        &self.queries[slot_of(h) as usize]
    }

    /// Read access to a query's lifecycle timeline. Panics on a stale
    /// (recycled-slot) handle.
    #[must_use]
    pub fn timeline(&self, h: QueryHandle) -> &QueryTimeline {
        assert_eq!(
            gen_of(h),
            self.slot_gen[slot_of(h) as usize],
            "stale query handle: slot was recycled"
        );
        &self.timelines[slot_of(h) as usize]
    }

    /// The slot a live handle addresses, or `None` if the handle is
    /// stale (its slot moved on to a newer generation) or out of range.
    /// Unlike [`Seaweed::check_handle`] this is for API-surface lookups
    /// and does not count drops.
    #[must_use]
    pub(crate) fn live_slot(&self, h: QueryHandle) -> Option<u32> {
        let slot = slot_of(h);
        ((slot as usize) < self.queries.len() && gen_of(h) == self.slot_gen[slot as usize])
            .then_some(slot)
    }

    /// The currently-valid wire handle for a slot: the slot plus its
    /// live generation. Every outgoing message embeds this, so replies
    /// to it can be generation-checked on arrival.
    #[must_use]
    pub(crate) fn live_handle(&self, slot: QueryHandle) -> QueryHandle {
        make_handle(slot_of(slot), self.slot_gen[slot_of(slot) as usize])
    }

    /// Validates an inbound handle at the message boundary: returns the
    /// slot if the generation matches, else counts a stale-handle drop.
    pub(crate) fn check_handle(&mut self, h: QueryHandle) -> Option<QueryHandle> {
        if let Some(slot) = self.live_slot(h) {
            return Some(slot);
        }
        self.stats.stale_handle_drops += 1;
        None
    }

    /// The protocol layer's counters and per-query latency histograms as
    /// a [`seaweed_sim::MetricsRegistry`], for merging onto the engine's
    /// in run summaries.
    #[must_use]
    pub fn metrics(&self) -> seaweed_sim::MetricsRegistry {
        use seaweed_types::LogBuckets;
        let mut m = seaweed_sim::MetricsRegistry::new();
        let s = &self.stats;
        m.set_counter("app.meta_pushes", s.meta_pushes);
        m.set_counter("app.meta_pushes_accounted", s.meta_pushes_accounted);
        m.set_counter("app.meta_repairs", s.meta_repairs);
        m.set_counter("app.disseminate_msgs", s.disseminate_msgs);
        m.set_counter("app.dissem_bytes", s.dissem_bytes);
        m.set_counter("app.predictor_bytes", s.predictor_bytes);
        m.set_counter("app.dissem_reissues", s.dissem_reissues);
        m.set_counter("app.predictor_reports", s.predictor_reports);
        m.set_counter(
            "app.predictions_for_unavailable",
            s.predictions_for_unavailable,
        );
        m.set_counter("app.uncovered_unavailable", s.uncovered_unavailable);
        m.set_counter("app.result_submissions", s.result_submissions);
        m.set_counter("app.result_retries", s.result_retries);
        m.set_counter("app.exec_failures", s.exec_failures);
        m.set_counter("app.vertex_replications", s.vertex_replications);
        m.set_counter("app.replicas_accounted", s.replicas_accounted);
        m.set_counter("app.vertex_states_lost", s.vertex_states_lost);
        m.set_counter("app.results_at_origin", s.results_at_origin);
        m.set_counter("app.amnesia_crashes", s.amnesia_crashes);
        m.set_counter("app.dissem_give_ups", s.dissem_give_ups);
        m.set_counter("app.hedges_sent", s.hedges_sent);
        m.set_counter("app.hedge_wins", s.hedge_wins);
        m.set_counter("app.hedge_losses", s.hedge_losses);
        m.set_counter("app.hedge_wasted_bytes", s.hedge_wasted_bytes);
        m.set_counter("app.query_kicks", s.query_kicks);
        m.set_counter("app.storm_admitted", s.storm_admitted);
        m.set_counter("app.storm_queued", s.storm_queued);
        m.set_counter("app.storm_dropped", s.storm_dropped);
        m.set_counter("app.stale_handle_drops", s.stale_handle_drops);
        m.set_counter("app.scan_quanta", s.scan_quanta);
        m.set_counter("app.shared_scan_batches", s.shared_scan_batches);
        m.set_counter("app.shared_scan_queries", s.shared_scan_queries);
        m.set_counter("app.internal_drops", s.internal_drops);
        m.set_counter("app.queries_injected", self.queries.len() as u64);
        // Stage-latency histograms need sub-second resolution at the fast
        // end (predictors arrive in RTTs): 1 ms .. 1 day.
        let buckets = LogBuckets::new(Duration::MILLISECOND, Duration::from_days(1), 40);
        for (h, tl) in self.timelines.iter().enumerate() {
            if let Some(d) = tl.time_to_predictor() {
                m.observe_with("app.query.predictor_latency", buckets, d);
            }
            if let Some(d) = tl.time_to_first_result() {
                m.observe_with("app.query.first_result_latency", buckets, d);
            }
            let slo = self.slo_report(h as QueryHandle);
            if let Some(d) = slo.delay_to_c50 {
                m.observe_with("app.query.delay_to_c50", buckets, d);
            }
            if let Some(d) = slo.delay_to_c90 {
                m.observe_with("app.query.delay_to_c90", buckets, d);
            }
            if let Some(d) = slo.delay_to_c99 {
                m.observe_with("app.query.delay_to_c99", buckets, d);
            }
        }
        m
    }

    /// Per-query SLO report: delay-to-completeness percentile checkpoints
    /// (against the predictor's total-row estimate) plus hedging
    /// cost/benefit counters.
    #[must_use]
    pub fn slo_report(&self, h: QueryHandle) -> crate::obs::SloReport {
        let slot = slot_of(h) as usize;
        let total = self.queries[slot]
            .predictor
            .as_ref()
            .map_or(0.0, Predictor::total_rows);
        self.timelines[slot].slo_report(total)
    }

    /// Claims a query slot: the lowest released slot if any (storm mode
    /// recycles), else the next fresh registry index. Panics when the
    /// 64-slot space is exhausted — storm admission gates on capacity
    /// before calling, and the baseline keeps its historical 64-query
    /// assertion.
    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            return slot;
        }
        assert!(
            self.queries.len() < 64,
            "query registry is limited to 64 in-flight queries per run"
        );
        self.queries.len() as u32
    }

    /// Installs a query's origin-side state into a claimed slot (fresh
    /// push or recycled overwrite), registers its id and sets it going:
    /// the TTL expiry, the dissemination from its origin and the kick
    /// timer. Returns the generation-bearing handle.
    fn launch_query(
        &mut self,
        eng: &mut SeaweedEngine,
        state: QueryState,
        ttl: Duration,
    ) -> QueryHandle {
        let (id, origin, now) = (state.id, state.origin, eng.now());
        let slot = self.alloc_slot();
        if slot as usize == self.queries.len() {
            self.queries.push(state);
            self.timelines.push(QueryTimeline::new(now));
            self.slot_gen.push(0);
        } else {
            self.queries[slot as usize] = state;
            self.timelines[slot as usize] = QueryTimeline::new(now);
        }
        let handle = make_handle(slot, self.slot_gen[slot as usize]);
        self.query_by_id.insert(id, handle);
        // Internal machinery (timers, dissemination, bitmasks) runs on
        // slots; the generation only travels on the wire and in the
        // returned handle.
        self.set_detached_app_timer(eng, origin, ttl, TimerAction::QueryExpire { query: slot });
        self.start_dissemination(eng, origin, slot);
        self.arm_query_kick(eng, origin, slot);
        handle
    }

    /// Injects a one-shot query at `origin` (which must be up and
    /// joined), alive for `ttl`. Returns the handle used in all
    /// origin-side accessors.
    pub fn inject_query(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        sql: &str,
        ttl: Duration,
        schema: &seaweed_store::Schema,
    ) -> Result<QueryHandle, seaweed_store::StoreError> {
        self.inject_with_kind(eng, origin, sql, ttl, schema, QueryKind::OneShot)
    }

    /// Injects a continuous query: every endsystem re-executes it each
    /// `interval` (with `NOW()` re-bound), and the origin's result rolls
    /// forward as epochs replace each endsystem's contribution in the
    /// aggregation tree. Requires a provider that can execute arbitrary
    /// bindings (e.g. `LiveTables`).
    pub fn inject_continuous_query(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        sql: &str,
        interval: Duration,
        ttl: Duration,
        schema: &seaweed_store::Schema,
    ) -> Result<QueryHandle, seaweed_store::StoreError> {
        assert!(interval.as_micros() > 0, "interval must be positive");
        self.inject_with_kind(
            eng,
            origin,
            sql,
            ttl,
            schema,
            QueryKind::Continuous { interval },
        )
    }

    /// Registers a replicated view (NOW()-free single-table aggregate).
    /// Every endsystem computes it and replicates the value with its
    /// metadata from the next push onward. Register views before
    /// endsystems come up so the first pushes already carry them.
    pub fn register_view(
        &mut self,
        sql: &str,
        schema: &seaweed_store::Schema,
    ) -> Result<ViewHandle, seaweed_store::StoreError> {
        let parsed = Query::parse(sql)?;
        let bound = parsed.bind(schema, 0)?;
        let handle = self.views.len() as ViewHandle;
        self.views.push(ViewDef {
            text: parsed.text,
            bound,
        });
        self.view_values.push(vec![None; self.knows_query.len()]);
        Ok(handle)
    }

    /// Queries a registered view: the answer covers every endsystem whose
    /// metadata is replicated — including currently-unavailable ones, at
    /// push-period staleness — and arrives in seconds.
    pub fn query_view(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        view: ViewHandle,
        ttl: Duration,
    ) -> QueryHandle {
        assert!((view as usize) < self.views.len(), "unknown view");
        assert!(eng.is_up(origin), "origin must be available");
        let def = &self.views[view as usize];
        // The query id folds in the view tag so a view query and a
        // regular query over the same text coexist.
        let id = sha1::id_of(format!("view:{}", def.text).as_bytes());
        let state = QueryState {
            id,
            text: def.text.clone(),
            bound: def.bound.clone(),
            kind: QueryKind::View { view },
            schema: seaweed_store::Schema::new("_view", Vec::new()),
            origin,
            injected: eng.now(),
            expires: eng.now() + ttl,
            active: true,
            predictor: None,
            predictor_at: None,
            latest: None,
            latest_version: 0,
            progress: Vec::new(),
            kicks: 0,
        };
        self.launch_query(eng, state, ttl)
    }

    fn inject_with_kind(
        &mut self,
        eng: &mut SeaweedEngine,
        origin: NodeIdx,
        sql: &str,
        ttl: Duration,
        schema: &seaweed_store::Schema,
        kind: QueryKind,
    ) -> Result<QueryHandle, seaweed_store::StoreError> {
        assert!(eng.is_up(origin), "origin must be available");
        let parsed = Query::parse(sql)?;
        if parsed.group_by.is_some() {
            // Grouped results are a local-engine feature; the in-network
            // aggregation carries scalar aggregates (§1.3: grouped /
            // multi-endsystem functionality belongs in a layer above).
            return Err(seaweed_store::StoreError::BadAggregate(
                "GROUP BY is not supported for distributed queries".into(),
            ));
        }
        let now_secs = (eng.now().as_micros() / 1_000_000) as i64;
        let bound = parsed.bind(schema, now_secs)?;
        let id = sha1::id_of(parsed.text.as_bytes());
        let state = QueryState {
            id,
            text: parsed.text,
            bound,
            kind,
            schema: schema.clone(),
            origin,
            injected: eng.now(),
            expires: eng.now() + ttl,
            active: true,
            predictor: None,
            predictor_at: None,
            latest: None,
            latest_version: 0,
            progress: Vec::new(),
            kicks: 0,
        };
        // Slot claimed only after parse/bind succeed, so a rejected
        // query can never leak a recycled slot.
        Ok(self.launch_query(eng, state, ttl))
    }

    /// Explicitly cancels a query before its TTL (§2: results "continue
    /// to arrive for any query until it times out or is explicitly
    /// canceled"). A cancel notice is broadcast over the dissemination
    /// tree (charged as one dissemination round) so endsystems stop
    /// executing; all protocol state for the query is dropped.
    pub fn cancel_query(&mut self, eng: &mut SeaweedEngine, h: QueryHandle) {
        let Some(slot) = self.live_slot(h) else {
            return; // stale handle: the query is long gone
        };
        if !self.queries[slot as usize].active {
            return;
        }
        // The cancel notice costs one dissemination pass: O(N) small
        // messages. We charge it against the origin's subtree fan-out
        // without re-running the range machinery (the notice carries no
        // per-range state to aggregate back).
        let origin = self.queries[slot as usize].origin;
        if eng.is_up(origin) {
            let notice = u64::from(crate::wire::SEAWEED_HEADER + 16);
            let mut left = notice * eng.num_up() as u64;
            self.stats.dissem_bytes += left;
            // The recorder takes a charge of at most 4 GB.
            while left > 0 {
                let chunk = u32::try_from(left).unwrap_or(u32::MAX);
                eng.record_exchange(origin, seaweed_sim::TrafficClass::Query, chunk, 0);
                left -= u64::from(chunk);
            }
        }
        self.expire_query(slot);
        self.reclaim_slots(eng);
    }

    /// Runs the event loop until `horizon`; returns how many events it
    /// dispatched.
    pub fn run_until(&mut self, eng: &mut SeaweedEngine, horizon: Time) -> u64 {
        let mut events = 0;
        while let Some((_, ev)) = eng.next_event_before(horizon) {
            events += 1;
            self.dispatch(eng, ev);
        }
        events
    }

    /// [`Seaweed::run_until`], folding each event into `log` as it is
    /// delivered.
    pub fn run_until_logged(&mut self, eng: &mut SeaweedEngine, horizon: Time, log: &mut EventLog) {
        while let Some((t, ev)) = eng.next_event_before(horizon) {
            log.add(t, &ev);
            self.dispatch(eng, ev);
        }
    }

    /// Handles one engine event (exposed for custom experiment loops that
    /// interleave injections with event processing).
    pub fn dispatch(&mut self, eng: &mut SeaweedEngine, ev: Event<OverlayMsg<SeaweedMsg>>) {
        let initial: OverlayEvents<SeaweedMsg> = match ev {
            Event::Message { from, to, payload } => {
                // `into_owned` only clones while other in-flight copies
                // still share the allocation (multicast fan-out or fault
                // duplication); the last copy out is a free move.
                self.overlay.on_message(eng, from, to, payload.into_owned())
            }
            Event::Timer { node, tag } if is_overlay_tag(tag) => {
                self.overlay.on_timer(eng, node, tag)
            }
            Event::Timer { node, tag } => {
                self.on_app_timer(eng, node, tag);
                OverlayEvents::new()
            }
            Event::NodeUp { node } => {
                self.on_node_up(eng, node);
                self.overlay.node_up(eng, node)
            }
            Event::NodeDown { node } => {
                self.overlay.node_down(eng, node);
                self.on_node_down(eng, node);
                OverlayEvents::new()
            }
            Event::NodeCrash { node } => {
                self.overlay.node_down(eng, node);
                self.on_node_crash(eng, node);
                OverlayEvents::new()
            }
            Event::PartitionStart { partition } => {
                let members = eng.partition_members(partition);
                self.overlay.partition_started(eng, &members);
                OverlayEvents::new()
            }
            Event::PartitionEnd { partition } => {
                let members = eng.partition_members(partition);
                self.overlay.partition_healed(eng, &members);
                self.on_partition_healed(eng);
                OverlayEvents::new()
            }
        };
        self.cascade(eng, initial);
        self.reclaim_slots(eng);
    }

    pub(crate) fn on_overlay_event(
        &mut self,
        eng: &mut SeaweedEngine,
        ev: OverlayEvent<SeaweedMsg>,
    ) -> OverlayEvents<SeaweedMsg> {
        match ev {
            OverlayEvent::Joined { node } => self.on_joined(eng, node),
            OverlayEvent::NeighborJoined { node, joined } => {
                self.on_neighbor_joined(eng, node, joined);
                OverlayEvents::new()
            }
            OverlayEvent::NeighborFailed { node, failed } => {
                self.on_neighbor_failed(eng, node, failed);
                OverlayEvents::new()
            }
            OverlayEvent::AppMessage {
                node,
                from,
                payload,
            } => self.on_seaweed_msg(eng, from, node, payload),
            OverlayEvent::Deliver {
                node,
                key,
                origin,
                payload,
                ..
            } => self.on_routed_delivery(eng, origin, node, key, payload),
        }
    }

    /// Generation-checks every query handle embedded in an inbound
    /// message, rewriting it to the bare slot for the internal handlers.
    /// A handle whose slot was recycled (storm mode) is late traffic for
    /// a dead query: the message is dropped — `None` — before any state
    /// is touched, and `stale_handle_drops` counts it. `QueryListPush`
    /// drops stale entries individually rather than the whole list.
    fn validate_msg(&mut self, mut msg: SeaweedMsg) -> Option<SeaweedMsg> {
        if let SeaweedMsg::QueryListPush { queries } = &mut msg {
            queries.retain_mut(|q| match self.check_handle(*q) {
                Some(slot) => {
                    *q = slot;
                    true
                }
                None => false,
            });
        } else if let Some(query) = msg.query_handle_mut() {
            *query = self.check_handle(*query)?;
        }
        Some(msg)
    }

    fn on_seaweed_msg(
        &mut self,
        eng: &mut SeaweedEngine,
        from: NodeIdx,
        to: NodeIdx,
        msg: SeaweedMsg,
    ) -> OverlayEvents<SeaweedMsg> {
        let Some(msg) = self.validate_msg(msg) else {
            return OverlayEvents::new();
        };
        match msg {
            SeaweedMsg::MetaPush { owner } => {
                self.on_meta_push(to, owner);
                OverlayEvents::new()
            }
            SeaweedMsg::PredictorReport {
                query,
                range,
                predictor,
            } => self.on_range_report(
                eng,
                to,
                from,
                query,
                range,
                RangeResult::Predictor(*predictor),
            ),
            SeaweedMsg::PredictorToOrigin { query, predictor } => {
                self.on_predictor_at_origin(eng, to, query, *predictor);
                OverlayEvents::new()
            }
            SeaweedMsg::ViewReport {
                query,
                range,
                agg,
                endsystems,
            } => self.on_range_report(
                eng,
                to,
                from,
                query,
                range,
                RangeResult::View(agg, endsystems),
            ),
            SeaweedMsg::ViewToOrigin {
                query,
                agg,
                endsystems,
            } => {
                self.on_view_at_origin(eng, to, query, agg, endsystems);
                OverlayEvents::new()
            }
            SeaweedMsg::ResultAck {
                query,
                vertex,
                child,
                version,
            } => {
                self.on_result_ack(to, query, vertex, child, version);
                OverlayEvents::new()
            }
            SeaweedMsg::VertexReplicate { query, vertex } => {
                self.on_vertex_replicate(to, query, vertex);
                OverlayEvents::new()
            }
            SeaweedMsg::ResultToOrigin {
                query,
                agg,
                version,
            } => {
                self.on_result_at_origin(eng, to, query, agg, version);
                OverlayEvents::new()
            }
            SeaweedMsg::QueryListPull => {
                self.on_query_list_pull(eng, from, to);
                OverlayEvents::new()
            }
            SeaweedMsg::QueryListPush { queries } => {
                self.on_query_list_push(eng, to, &queries);
                OverlayEvents::new()
            }
            // These two arrive via routing, not direct sends.
            SeaweedMsg::Disseminate {
                query,
                range,
                parent,
            } => self.handle_disseminate(eng, to, query, range, parent),
            SeaweedMsg::ResultSubmit {
                query,
                vertex,
                child,
                version,
                agg,
            } => self.on_result_submit(eng, from, to, query, vertex, child, version, agg),
        }
    }

    fn on_routed_delivery(
        &mut self,
        eng: &mut SeaweedEngine,
        route_origin: NodeIdx,
        node: NodeIdx,
        _key: Id,
        msg: SeaweedMsg,
    ) -> OverlayEvents<SeaweedMsg> {
        let Some(msg) = self.validate_msg(msg) else {
            return OverlayEvents::new();
        };
        match msg {
            SeaweedMsg::Disseminate {
                query,
                range,
                parent,
            } => self.handle_disseminate(eng, node, query, range, parent),
            SeaweedMsg::ResultSubmit {
                query,
                vertex,
                child,
                version,
                agg,
            } => self.on_result_submit(eng, route_origin, node, query, vertex, child, version, agg),
            other => {
                debug_assert!(false, "unexpected routed message: {other:?}");
                OverlayEvents::new()
            }
        }
    }

    // ---------------------------------------------------------- timers

    /// Parks `action` — its query slot, if it names one, widened to the
    /// live wire handle — and returns the tag to arm its engine timer
    /// with.
    fn park_timer_action(&mut self, mut action: TimerAction) -> u64 {
        if let Some(query) = action.query_handle_mut() {
            *query = self.live_handle(*query);
        }
        let tag = self.timers.park(action);
        debug_assert!(
            !is_overlay_tag(tag),
            "application tag in the overlay's space"
        );
        tag
    }

    /// Arms `action` on `node`, tied to its liveness, and returns its tag.
    /// Never disarmed: a handler decides when it fires whether it is
    /// still current (DESIGN.md §3.5).
    pub(crate) fn set_app_timer(
        &mut self,
        eng: &mut SeaweedEngine,
        node: NodeIdx,
        delay: Duration,
        action: TimerAction,
    ) -> u64 {
        let tag = self.park_timer_action(action);
        let _ = eng.set_timer(node, delay, tag);
        tag
    }

    /// Arms a timer that must survive `node` going down (e.g. query
    /// expiry, which is wall-clock TTL, not tied to the origin's
    /// session).
    pub(crate) fn set_detached_app_timer(
        &mut self,
        eng: &mut SeaweedEngine,
        node: NodeIdx,
        delay: Duration,
        action: TimerAction,
    ) {
        let tag = self.park_timer_action(action);
        let _ = eng.set_detached_timer(node, delay, tag);
    }

    fn on_app_timer(&mut self, eng: &mut SeaweedEngine, node: NodeIdx, tag: u64) {
        let Some(mut action) = self.timers.take(tag) else {
            return; // nothing is parked under this tag
        };
        // An action armed for a query whose slot has since been recycled
        // is late traffic for a dead query, exactly as a message in
        // flight would be: dropped before any state is touched, and
        // counted (`validate_msg`).
        if let Some(query) = action.query_handle_mut() {
            let Some(slot) = self.check_handle(*query) else {
                return;
            };
            *query = slot;
        }
        match action {
            TimerAction::MetaPush { node: n } => {
                debug_assert_eq!(n, node);
                self.on_meta_push_timer(eng, n);
            }
            TimerAction::DissemTimeout { task, round } => {
                self.on_dissem_timeout(eng, task, round);
            }
            TimerAction::HedgeTimeout { task, round } => {
                self.on_hedge_timeout(eng, task, round);
            }
            TimerAction::QueryKick { node: n, query } => {
                self.on_query_kick(eng, n, query);
            }
            TimerAction::ExecuteLocal { node: n, query } => {
                self.execute_and_submit(eng, n, query);
            }
            TimerAction::ResultRetry { node: n } => {
                self.on_result_retry(eng, n, tag);
            }
            TimerAction::QueryExpire { query } => {
                self.expire_query(query);
            }
            TimerAction::ScanQuantum { node: n } => {
                debug_assert_eq!(n, node);
                self.on_scan_quantum(eng, n);
            }
        }
    }

    /// Tears down a query's protocol state. `query` is a slot index;
    /// idempotent (retire followed by the TTL expiry timer is a no-op).
    /// Under storm mode the slot is left in `retired`, still naming this
    /// query until [`Seaweed::reclaim_slots`] ends the event or call.
    fn expire_query(&mut self, query: QueryHandle) {
        let q = &mut self.queries[query as usize];
        if !q.active {
            return;
        }
        q.active = false;
        // Drop protocol state lazily held for this query. Timers still
        // armed for it fire as no-ops: its tasks are gone, and under
        // storm mode the recycled slot's generation refuses them first.
        self.tasks.clear_query(query);
        self.vertices.clear_query(query);
        for nv in &mut self.node_vertices {
            nv.retain(|&(qh, _)| qh != query);
        }
        self.pending_submits.clear_query(query);
        self.cont_epoch.clear_query(query);
        self.leaf_targets.clear_query(query);
        self.gave_up.retain(|&(_, qh, _)| qh != query);
        // Storm mode recycles the slot once the event ends. The baseline
        // never releases, so its handles stay unique for the life of the run.
        if self.cfg.storm.is_some() {
            self.retired.push(query);
        }
    }

    // ------------------------------------------------- lifecycle hooks

    fn on_node_up(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) {
        // Update the local availability model with the completed down
        // spell (the endsystem persists the model across sessions).
        if let Some(down_at) = self.down_since[n.idx()].take() {
            let span = eng.now().saturating_since(down_at);
            self.models[n.idx()].observe_up(span, eng.now());
        }
        // If the node crashed with amnesia and nobody detected it before
        // it came back, the repair stashes are stale: the copies are gone
        // for good and only the owners' periodic pushes restore them.
        self.amnesia_meta[n.idx()].clear();
        self.amnesia_vertices[n.idx()].clear();
    }

    fn on_node_down(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) {
        self.down_since[n.idx()] = Some(eng.now());
        // Local volatile query state dies with the node; parents reissue.
        self.tasks.clear_node(n.0);
        self.pending_submits.clear_node(n.0);
        // The engine auto-cancelled this node's timers; drop the matching
        // deferred actions (query expiry is detached and survives).
        self.timers.drop_node(n.0);
        self.retry_armed[n.idx()] = None;
        // Un-acked local executions may be rescheduled on rejoin.
        self.exec_pending[n.idx()] = 0;
        // Queued scan work dies with the node's volatile state too; the
        // pump timer was auto-cancelled above.
        let sn = &mut self.scan[n.idx()];
        sn.tasks.clear();
        sn.pump = false;
        // Vertex replicas this node held are repaired when some neighbor
        // detects the failure (on_neighbor_failed); metadata it held
        // likewise. Nothing to do eagerly — that is the window of
        // vulnerability the paper describes.
    }

    /// Crash-with-amnesia: everything a clean shutdown loses, plus the
    /// node's *soft* state — query knowledge, submission/ack memory,
    /// continuous-query epochs, held metadata copies and vertex replicas
    /// — is wiped immediately. Only state the paper says is persisted
    /// survives: the availability model and the per-query leaf vertexId
    /// (`leaf_targets`, §3.4). Exactly-once is preserved anyway because
    /// a rejoining amnesiac resubmits into the *same* persisted child
    /// slot with a version the vertex's versioned child map dedups.
    fn on_node_crash(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) {
        self.on_node_down(eng, n);
        self.stats.amnesia_crashes += 1;
        self.knows_query[n.idx()] = 0;
        self.submitted[n.idx()] = 0;
        self.cont_epoch.clear_node(n.0);
        // Metadata copies held for other owners are gone *now*: prune the
        // holder lists so nobody counts them, but stash the owner list so
        // first-detection repair can still re-replicate from survivors.
        let held: Vec<NodeIdx> = std::mem::take(&mut self.held_by[n.idx()]);
        for &owner in &held {
            self.holders[owner.idx()].retain(|&h| h != n);
        }
        self.amnesia_meta[n.idx()] = held;
        // Vertex replicas likewise; a group whose last holder just lost
        // its memory is lost immediately (the paper's low-probability
        // window), not at detection time.
        let vheld = std::mem::take(&mut self.node_vertices[n.idx()]);
        let mut stash = Vec::new();
        for (h, vertex) in vheld {
            let Some(state) = self.vertices.get_mut(&(h, vertex)) else {
                continue;
            };
            state.holders.retain(|&x| x != n);
            if state.holders.is_empty() {
                if !state.children.is_empty() {
                    self.stats.vertex_states_lost += 1;
                }
                self.vertices.remove(&(h, vertex));
            } else {
                stash.push((h, vertex));
            }
        }
        self.amnesia_vertices[n.idx()] = stash;
    }

    /// A partition healed: the boundary may have swallowed root-vertex
    /// pushes to origins on the far side, and ResultToOrigin is the one
    /// unretried message in the protocol. Re-push every active query's
    /// current root aggregate so origins converge without waiting for
    /// the next child-driven propagation. (Sorted for determinism; the
    /// origin's version guard dedups anything it already saw.)
    fn on_partition_healed(&mut self, eng: &mut SeaweedEngine) {
        let b = self.overlay.config().b;
        let mut pushes: Vec<(QueryHandle, u128, NodeIdx)> = Vec::new();
        for ((h, vertex), state) in self.vertices.iter() {
            let q = &self.queries[h as usize];
            if !q.active || state.children.is_empty() {
                continue;
            }
            if crate::vertex::parent_vertex(q.id, vertex, b).is_some() {
                continue; // interior vertex: child retries cover it
            }
            let Some(&primary) = state.holders.iter().find(|&&x| eng.is_up(x)) else {
                continue;
            };
            pushes.push((h, vertex.0, primary));
        }
        pushes.sort_unstable_by_key(|&(h, v, _)| (h, v));
        for (h, vertex, primary) in pushes {
            let Some(state) = self.vertices.get(&(h, Id(vertex))) else {
                // Collected from `vertices` a moment ago with nothing
                // mutating in between; if the entry is somehow gone,
                // skip the push rather than panic mid-heal.
                self.stats.internal_drops += 1;
                continue;
            };
            let merged = state.merged(Aggregate::empty(self.queries[h as usize].bound.agg));
            let version = state.out_version;
            let origin = self.queries[h as usize].origin;
            if origin == primary {
                self.on_result_at_origin(eng, origin, h, merged, version);
            } else if eng.is_up(origin) && eng.reachable(primary, origin) {
                self.stats.results_at_origin += 1;
                let wire = self.live_handle(h);
                self.overlay.send_app(
                    eng,
                    primary,
                    origin,
                    SeaweedMsg::ResultToOrigin {
                        query: wire,
                        agg: merged,
                        version,
                    },
                    crate::wire::RESULT_SUBMIT,
                    seaweed_sim::TrafficClass::Query,
                );
            }
        }

        // Re-cover dissemination ranges that were given up while the cut
        // was open: the recording node (or the origin, if it has since
        // died) re-issues each range. Where the recorder still holds the
        // task, its given-up slot is re-opened first, so the resend rides
        // the normal timeout/reissue machinery instead of being one more
        // unprotected message (give-ups exist precisely because those
        // die). The origin additionally re-kicks the full broadcast for
        // any active query in case the initial route to the query root
        // itself was swallowed by the partition (`start_dissemination`
        // sends one unretried message).
        let gave_up = std::mem::take(&mut self.gave_up);
        let mut rearm: Vec<TaskKey> = Vec::new();
        for (n, h, range) in gave_up {
            if !self.queries[h as usize].active {
                continue;
            }
            let issuer = if eng.is_up(n) {
                n
            } else {
                self.queries[h as usize].origin
            };
            if !eng.is_up(issuer) {
                self.gave_up.push((n, h, range)); // retry at the next heal
                continue;
            }
            if issuer == n {
                // Ascending key order; the first candidate is picked, so
                // the order is protocol-visible.
                let candidate = self
                    .tasks
                    .tasks_of(n.0, h)
                    .find(|(_, task)| task.slots.iter().any(|s| s.range == range))
                    .map(|(key, _)| key);
                if let Some(key) = candidate {
                    // `tasks_of` just listed this key with a slot
                    // matching the range and nothing mutates in between;
                    // if either lookup misses anyway, skip the re-open
                    // (counted) — the resend below still covers the range.
                    match self.tasks.get_mut(&key) {
                        Some(task) => {
                            if let Some(slot) = task.slots.iter_mut().find(|s| s.range == range) {
                                slot.done = None;
                                slot.reissues = 0;
                                slot.sent_at = eng.now();
                                slot.hedge = None;
                                task.reported = false;
                                if !rearm.contains(&key) {
                                    rearm.push(key);
                                }
                            } else {
                                self.stats.internal_drops += 1;
                            }
                        }
                        None => self.stats.internal_drops += 1,
                    }
                }
            }
            let size = crate::wire::disseminate(self.queries[h as usize].text.len());
            self.stats.disseminate_msgs += 1;
            self.stats.dissem_bytes += u64::from(size);
            self.timelines[h as usize].dissem_msgs += 1;
            let wire = self.live_handle(h);
            let evs = self.overlay.route(
                eng,
                issuer,
                range.midpoint(),
                SeaweedMsg::Disseminate {
                    query: wire,
                    range,
                    parent: issuer,
                },
                size,
            );
            self.cascade(eng, evs);
        }
        for key in rearm {
            self.rearm_task_timers(eng, key);
        }
        for h in 0..self.queries.len() as QueryHandle {
            let q = &self.queries[h as usize];
            if q.active && eng.is_up(q.origin) && self.overlay.is_joined(q.origin) {
                let origin = q.origin;
                self.start_dissemination(eng, origin, h);
            }
        }
    }

    fn on_joined(&mut self, eng: &mut SeaweedEngine, n: NodeIdx) -> OverlayEvents<SeaweedMsg> {
        // (Re)start metadata pushes: one immediately, then randomized.
        self.push_metadata(eng, n);
        self.schedule_meta_push(eng, n);
        // Learn about active queries from a neighbor.
        let has_active = self.queries.iter().any(|q| q.active);
        if has_active {
            if let Some(&peer) = self.overlay.replica_set(n, 1).first() {
                self.overlay.send_app(
                    eng,
                    n,
                    peer,
                    SeaweedMsg::QueryListPull,
                    crate::wire::SEAWEED_HEADER,
                    seaweed_sim::TrafficClass::Query,
                );
            }
        }
        OverlayEvents::new()
    }

    fn on_query_list_pull(&mut self, eng: &mut SeaweedEngine, from: NodeIdx, at: NodeIdx) {
        let active: Vec<QueryHandle> = self
            .queries
            .iter()
            .enumerate()
            .filter(|(h, q)| q.active && self.knows_query[at.idx()] & (1 << h) != 0)
            .map(|(h, _)| h as QueryHandle)
            .collect();
        if active.is_empty() {
            return;
        }
        let text: usize = active
            .iter()
            .map(|&h| self.queries[h as usize].text.len())
            .sum();
        let size = crate::wire::query_list(text, active.len());
        let wire: Vec<QueryHandle> = active.iter().map(|&h| self.live_handle(h)).collect();
        self.overlay.send_app(
            eng,
            at,
            from,
            SeaweedMsg::QueryListPush { queries: wire },
            size,
            seaweed_sim::TrafficClass::Query,
        );
    }

    fn on_query_list_push(
        &mut self,
        eng: &mut SeaweedEngine,
        at: NodeIdx,
        queries: &[QueryHandle],
    ) {
        for &h in queries {
            self.learn_query(eng, at, h);
        }
    }

    /// Marks `at` as knowing query `h` and schedules local execution if
    /// it has not yet contributed.
    pub(crate) fn learn_query(&mut self, eng: &mut SeaweedEngine, at: NodeIdx, h: QueryHandle) {
        let bit = 1u64 << h;
        self.knows_query[at.idx()] |= bit;
        if !self.queries[h as usize].active {
            return;
        }
        if matches!(self.queries[h as usize].kind, QueryKind::View { .. }) {
            // View queries have no local execution phase: they are
            // answered during dissemination from replicated values.
            return;
        }
        if self.submitted[at.idx()] & bit != 0 || self.exec_pending[at.idx()] & bit != 0 {
            return;
        }
        self.exec_pending[at.idx()] |= bit;
        let jitter = Duration::from_micros(self.rng.gen_range(0..=LOCAL_EXEC_DELAY.as_micros()));
        self.set_app_timer(
            eng,
            at,
            LOCAL_EXEC_DELAY + jitter,
            TimerAction::ExecuteLocal { node: at, query: h },
        );
    }
}

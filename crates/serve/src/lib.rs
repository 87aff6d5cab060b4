//! `gmc-serve`: the batching front door over the concurrent plan
//! cache.
//!
//! The GMC compile-time cost pays off when one symbolic solve is
//! amortized over many size-bound requests. This crate turns the
//! [`gmc_plan::PlanCache`] into a serving subsystem:
//!
//! ```text
//!               requests (structure name + dim bindings)
//!  clients ──────────────┐
//!                        ▼
//!                 ┌─────────────┐   groups in-flight requests by
//!                 │ dispatcher  │   (StructureKey, size region),
//!                 └─────────────┘   coalesces identical bindings
//!                        │ batches
//!          ┌─────────────┼─────────────┐
//!          ▼             ▼             ▼
//!      ┌───────┐     ┌───────┐     ┌───────┐    shared, sharded
//!      │worker0│     │worker1│  …  │workerN│ ─► PlanCache (hits
//!      └───────┘     └───────┘     └───────┘    only read and never
//!          │             │             │        wait on a recording)
//!          └────── replies (cost, parenthesization, kernels) ──►
//! ```
//!
//! * **Parse once per structure.** Chains are registered by name
//!   ([`Server::register`]); requests reference the name and carry only
//!   dimension bindings, so no request ever re-parses a chain.
//! * **Coalescing.** The dispatcher groups queued requests that share a
//!   `(StructureKey, region)` into one batch — a miss is recorded once
//!   for the whole group — and requests with *identical* bindings
//!   collapse into a single instantiate whose result is fanned back
//!   out.
//! * **Pre-enumeration.** [`Server::register_pre_enumerated`] records a
//!   plan for every reachable region of a small chain up front, making
//!   every subsequent request for it a hit.
//! * **No async runtime.** Plain `std::thread` workers and
//!   `std::sync::mpsc` channels (the container has no crates.io
//!   access); the optional TCP listener in [`tcp`] is a thin
//!   line-protocol front end over `std::net::TcpListener`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod faults;
pub mod metrics;
pub mod protocol;
pub mod tcp;

/// Latency histograms live in [`gmc_obs`] since the observability
/// layer landed; re-exported here so existing
/// `gmc_serve::histogram::…` paths keep working (bucket boundaries
/// are unchanged, bit for bit).
pub use gmc_obs::histogram;

pub use admission::SubmitError;
pub use faults::SolveFault;
pub use gmc_obs::trace::{Span, Trace, TRACE_FORMAT};

use admission::{AdmissionGate, Permit};
use faults::FAULT_PANIC_MARKER;
use gmc::{GmcSolution, InferenceMode};
use gmc_expr::{DimBindings, DimVar, SymChain};
use gmc_kernels::KernelRegistry;
use gmc_obs::registry::OVERFLOW_LABEL;
use gmc_obs::{HistogramSnapshot, LatencyHistogram};
use gmc_plan::{
    region_signature, CacheStats, PlanCache, PlanError, PlanOutcome, PreparedKey, SolveTiming,
};
use metrics::ObsLayer;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of worker threads instantiating plans.
    pub workers: usize,
    /// Inference mode the shared cache compiles under.
    pub inference: InferenceMode,
    /// Target number of requests the dispatcher drains into one
    /// grouping round. It stops pulling *further* queued messages once
    /// reached; a single [`ServeHandle::submit_batch`] unit is always
    /// grouped whole (that is what makes its coalescing deterministic),
    /// so one oversized batch can exceed this.
    pub max_batch: usize,
    /// Admission capacity: the maximum number of requests in flight
    /// (admitted at submission, released when their reply is sent).
    /// Submissions beyond it are shed newest-first with
    /// [`ServeError::QueueFull`] (ticket paths) or
    /// [`SubmitError::QueueFull`] ([`ServeHandle::try_submit`]).
    /// Clamped to at least 1.
    pub queue_capacity: usize,
    /// How many dead workers the supervisor may respawn over the
    /// server's lifetime. When the budget is exhausted and the last
    /// worker dies, the server closes its admission gate instead of
    /// hanging new requests.
    pub restart_budget: usize,
    /// How many of the slowest request traces the server retains for
    /// [`ServeHandle::slow_traces`] and the `SLOW` wire command.
    /// 0 disables trace retention (per-stage histograms still record).
    pub slow_trace_capacity: usize,
}

/// Upper bound on items per worker job: groups larger than this are
/// split so independent instantiates of one hot region parallelize
/// across the pool.
const MAX_ITEMS_PER_JOB: usize = 16;

/// The request pipeline stages, in order. Every completed request
/// records one span per stage; the spans are consecutive, so their
/// durations sum exactly to the request's end-to-end latency:
///
/// * `admit` — submission call entry to admission + parse done
/// * `queue` — waiting in the dispatcher's inbox
/// * `group` — grouping/coalescing inside the dispatcher
/// * `dispatch` — job channel to a worker picking the job up
/// * `lookup` — locating the cached region plan
/// * `solve` — instantiating the plan (or recording it, on a miss)
/// * `reply` — accounting and fan-out back to the caller
pub const STAGES: [&str; 7] = [
    "admit", "queue", "group", "dispatch", "lookup", "solve", "reply",
];

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            inference: InferenceMode::default(),
            max_batch: 256,
            queue_capacity: 4096,
            restart_budget: 8,
            slow_trace_capacity: 32,
        }
    }
}

/// A successfully served request.
#[derive(Clone, Debug)]
pub struct Served {
    /// How the cache served it (hit, new region, new structure).
    pub outcome: PlanOutcome,
    /// Total cost (FLOPs — the plan layer's metric).
    pub cost: f64,
    /// Total FLOP count.
    pub flops: f64,
    /// The chosen parenthesization.
    pub parenthesization: String,
    /// Kernel names, in execution order.
    pub kernels: Vec<String>,
}

impl Served {
    fn from_solution(solution: &GmcSolution<f64>, outcome: PlanOutcome) -> Served {
        Served {
            outcome,
            cost: solution.cost(),
            flops: solution.flops(),
            parenthesization: solution.parenthesization().to_owned(),
            kernels: solution
                .kernel_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
        }
    }
}

/// Serving failures.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request names a structure that was never registered.
    UnknownStructure(String),
    /// The plan layer rejected the request (bad binding, unsolvable
    /// chain, …).
    Plan(PlanError),
    /// The request line itself was malformed.
    BadRequest(String),
    /// The server is shut down.
    Closed,
    /// The request's deadline had already passed when the dispatcher
    /// reached it; it was shed without touching a worker.
    DeadlineExceeded,
    /// The admission queue was at capacity; the request was shed
    /// (newest-first overload policy) without entering the dispatcher.
    QueueFull,
    /// The worker processing the request panicked (the panic was
    /// caught; the pool survives and this request is the only loss).
    Internal(String),
}

impl ServeError {
    /// A stable machine-readable tag for the wire protocol: error
    /// replies carry it as `"code"` so clients can branch without
    /// parsing prose.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownStructure(_) => "unknown_structure",
            ServeError::Plan(_) => "plan",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Closed => "closed",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::QueueFull => "queue_full",
            ServeError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownStructure(name) => {
                write!(f, "unknown structure `{name}` (register it first)")
            }
            ServeError::Plan(e) => e.fmt(f),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before dispatch"),
            ServeError::QueueFull => write!(f, "queue full (request shed by admission control)"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

/// One reply: the structure it answers for and the outcome.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The structure name of the originating request.
    pub structure: String,
    /// The served plan, or why it failed.
    pub result: Result<Served, ServeError>,
}

/// Cumulative serving counters: one snapshot over every owner of a
/// serve fact (the plan cache, the metrics registry, the served-counter
/// seqlock, the registered structures). Its one text view is the
/// `STATS` JSON ([`protocol::stats_to_json`]); `METRICS` renders the
/// same owners as a Prometheus exposition.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// The shared plan cache's hit/miss counters. These count cache
    /// *instantiates*, not requests: coalesced requests share one
    /// instantiate, so `cache.requests()` can be below
    /// `served.completed`.
    pub cache: CacheStats,
    /// Requests answered from another in-flight request's instantiate
    /// (identical structure, region and bindings in one batch); the
    /// `gmc.serve.coalesced` counter.
    pub coalesced: u64,
    /// Batches dispatched to workers; the `gmc.serve.batches` counter.
    pub batches: u64,
    /// Registered structures.
    pub structures: usize,
    /// Per-request completion counters, taken as one consistent
    /// snapshot: `hits + misses + failed == completed` holds in every
    /// reading, even mid-burst.
    pub served: ServedCounters,
    /// Latency histogram snapshots: `total`, `queue` and `expired`
    /// scopes, per-(structure, hit/miss) classes and per-stage spans.
    /// Read before `served`, so no histogram count exceeds
    /// `served.completed`.
    pub latency: LatencySnapshot,
    /// Worker-pool supervision counters (panics, respawns, live
    /// workers): the `gmc.serve.worker.*` and `gmc.serve.workers.alive`
    /// instruments.
    pub supervision: SupervisionStats,
}

/// Worker-pool health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Worker threads that died by panic over the server's lifetime.
    pub worker_panics: u64,
    /// Workers the supervisor respawned (bounded by the restart
    /// budget).
    pub respawns: u64,
    /// Workers currently alive.
    pub workers_alive: usize,
}

/// Per-request completion counters. Unlike the cache counters (which
/// count instantiates), these count *requests*: every submitted
/// request ends up in exactly one of `completed` (reached a worker)
/// or `rejected` (answered before dispatch: unknown structure, bad
/// binding, unbindable sizes), and `completed` splits exactly into
/// `hits + misses + failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedCounters {
    /// Requests a worker answered (successfully or not).
    pub completed: u64,
    /// Completed requests served from a cached region plan.
    pub hits: u64,
    /// Completed requests that recorded a structure or region plan
    /// (coalesced waiters of a miss count with the outcome they
    /// observed).
    pub misses: u64,
    /// Completed requests whose solve failed (plan-layer error) or
    /// whose worker panicked mid-solve (answered
    /// [`ServeError::Internal`]).
    pub failed: u64,
    /// Requests answered before reaching a worker (unknown structure,
    /// unresolvable variable names, unbindable sizes, overload sheds,
    /// expired deadlines). `rejected_overload` and `expired` are
    /// sub-counts of this, so `completed + rejected` still accounts
    /// for every request.
    pub rejected: u64,
    /// Of `rejected`: requests shed because the admission queue was at
    /// capacity.
    pub rejected_overload: u64,
    /// Of `rejected`: requests whose deadline passed before dispatch.
    pub expired: u64,
}

/// The [`ServedCounters`] cell: writers serialize on a short mutex and
/// bump a sequence counter around their updates (a seqlock), so
/// readers get a consistent snapshot — one where
/// `hits + misses + failed == completed` — without ever taking the
/// mutex. Reading the counters as independent relaxed atomics (the
/// pre-ISSUE-6 behavior) could observe `completed` ahead of the class
/// counters mid-update.
#[derive(Debug, Default)]
struct CounterCell {
    /// Even = quiescent; odd = a writer is mid-update.
    seq: AtomicU64,
    /// Serializes writers (the seqlock protocol is single-writer).
    write: Mutex<()>,
    completed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    rejected_overload: AtomicU64,
    expired: AtomicU64,
}

/// How a worker (or the submission path) accounts one or more
/// requests in the counter cell.
#[derive(Clone, Copy, Debug)]
enum ServedKind {
    Hit,
    Miss,
    Failed,
    Rejected,
    /// Shed at admission: counts into `rejected` *and*
    /// `rejected_overload` in one frame.
    RejectedOverload,
    /// Shed by the dispatcher's deadline check: counts into `rejected`
    /// *and* `expired` in one frame.
    Expired,
}

impl CounterCell {
    /// Accounts `n` requests of one kind in a single consistent update.
    fn record(&self, kind: ServedKind, n: u64) {
        let _guard = mutex_lock(&self.write);
        self.seq.fetch_add(1, Ordering::SeqCst); // odd: update in flight
        match kind {
            ServedKind::Hit => {
                self.hits.fetch_add(n, Ordering::SeqCst);
                self.completed.fetch_add(n, Ordering::SeqCst);
            }
            ServedKind::Miss => {
                self.misses.fetch_add(n, Ordering::SeqCst);
                self.completed.fetch_add(n, Ordering::SeqCst);
            }
            ServedKind::Failed => {
                self.failed.fetch_add(n, Ordering::SeqCst);
                self.completed.fetch_add(n, Ordering::SeqCst);
            }
            ServedKind::Rejected => {
                self.rejected.fetch_add(n, Ordering::SeqCst);
            }
            ServedKind::RejectedOverload => {
                self.rejected.fetch_add(n, Ordering::SeqCst);
                self.rejected_overload.fetch_add(n, Ordering::SeqCst);
            }
            ServedKind::Expired => {
                self.rejected.fetch_add(n, Ordering::SeqCst);
                self.expired.fetch_add(n, Ordering::SeqCst);
            }
        }
        self.seq.fetch_add(1, Ordering::SeqCst); // even: quiescent
    }

    /// A consistent snapshot: retries until a read frame closes with no
    /// writer in flight. Writers hold the cell only for a handful of
    /// atomic increments, so the retry loop is short.
    fn snapshot(&self) -> ServedCounters {
        loop {
            let before = self.seq.load(Ordering::SeqCst);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = ServedCounters {
                completed: self.completed.load(Ordering::SeqCst),
                hits: self.hits.load(Ordering::SeqCst),
                misses: self.misses.load(Ordering::SeqCst),
                failed: self.failed.load(Ordering::SeqCst),
                rejected: self.rejected.load(Ordering::SeqCst),
                rejected_overload: self.rejected_overload.load(Ordering::SeqCst),
                expired: self.expired.load(Ordering::SeqCst),
            };
            if self.seq.load(Ordering::SeqCst) == before {
                return snap;
            }
        }
    }
}

/// Latency snapshots of a running server.
#[derive(Clone, Debug, Default)]
pub struct LatencySnapshot {
    /// Enqueue→complete latency of every worker-completed request: the
    /// sum of its first six [`STAGES`] spans (`admit` through `solve`).
    /// Recorded after the request's served-counter update, so its count
    /// never runs ahead of [`ServedCounters::completed`].
    pub total: HistogramSnapshot,
    /// Enqueue→dispatch (queueing) latency of the same requests: the
    /// sum of their `admit`, `queue` and `group` spans, recorded with
    /// `total`.
    pub queue: HistogramSnapshot,
    /// Enqueue→shed latency of deadline-expired requests (they never
    /// reach a worker, so they appear here instead of `total`).
    pub expired: HistogramSnapshot,
    /// Per-(structure, hit/miss) enqueue→complete histograms of the
    /// successful completions, sorted by structure name then class,
    /// empty classes omitted. Each registered name owns one hit/miss
    /// pair, fixed at [`Server::register`] and kept across
    /// re-registration; past [`MAX_LATENCY_CLASSES`] names — and for a
    /// structure itself named `other` — requests share the one
    /// `other` pair.
    pub classes: Vec<ClassLatency>,
    /// Per-stage span histograms in [`STAGES`] order, recorded once
    /// per completed request.
    pub stages: Vec<StageLatency>,
}

/// One pipeline stage's span histogram.
#[derive(Clone, Debug)]
pub struct StageLatency {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Span-duration histogram of the stage across completed requests.
    pub snapshot: HistogramSnapshot,
}

/// One (structure, hit/miss) latency class.
#[derive(Clone, Debug)]
pub struct ClassLatency {
    /// Registered structure name.
    pub structure: String,
    /// `true` for the cache-hit class, `false` for misses.
    pub hit: bool,
    /// Enqueue→complete histogram of this class.
    pub snapshot: HistogramSnapshot,
}

/// One structure name's hit/miss histograms (enqueue→complete).
#[derive(Debug, Default)]
struct ClassHists {
    hit: LatencyHistogram,
    miss: LatencyHistogram,
}

/// Upper bound on distinct structure names tracked in per-class
/// latency histograms. A hostile client registering (or requesting)
/// many structures cannot grow stats memory without bound: structures
/// beyond the cap all record into one shared `other` class.
pub const MAX_LATENCY_CLASSES: usize = 64;

/// One registered structure: everything [`Server::register`] fixes
/// once, so a request for it only pays for its sizes.
struct Registration {
    chain: SymChain,
    /// The chain's structure key and first-occurrence variables.
    key: PreparedKey,
    /// This name's latency pair, or the shared `other` pair.
    classes: Arc<ClassHists>,
    /// Whether the name got the shared pair because the class cap was
    /// reached: each of its successful requests then counts into
    /// `gmc.serve.class.overflow`.
    overflowed: bool,
}

/// Nanoseconds between two instants, saturating into `u64`.
fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    later
        .saturating_duration_since(earlier)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// A pending reply; resolve it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<ServeReply>,
    structure: String,
}

impl Ticket {
    /// Blocks until the reply arrives.
    pub fn wait(self) -> ServeReply {
        self.rx.recv().unwrap_or(ServeReply {
            structure: self.structure,
            result: Err(ServeError::Closed),
        })
    }
}

struct Shared {
    cache: PlanCache,
    structures: RwLock<HashMap<String, Arc<Registration>>>,
    /// The latency pair shared past [`MAX_LATENCY_CLASSES`] names.
    other_classes: Arc<ClassHists>,
    served: CounterCell,
    gate: Arc<AdmissionGate>,
    obs: ObsLayer,
}

use gmc_plan::sync::{mutex_lock, read_lock, write_lock};

/// Builds concrete bindings from string-named sizes using only the
/// chain's own (already interned) variables. A variable bound twice is
/// an error, not last-wins.
fn bind_named_vars(vocabulary: &[DimVar], vars: &[(String, usize)]) -> Result<DimBindings, String> {
    let mut bindings = DimBindings::new();
    for (name, value) in vars {
        let Some(var) = vocabulary.iter().find(|v| v.name() == name) else {
            return Err(format!(
                "unknown dimension variable `{name}` for this structure"
            ));
        };
        if bindings.get(*var).is_some() {
            return Err(format!("dimension variable `{name}` bound twice"));
        }
        bindings.set_var(*var, *value);
    }
    Ok(bindings)
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let obs = &self.obs;
        // Histograms first: workers record them after the served
        // counters, so read in this order no count exceeds `completed`.
        let latency = LatencySnapshot {
            total: obs.total.snapshot(),
            queue: obs.queue.snapshot(),
            expired: obs.expired.snapshot(),
            classes: self.class_latencies(),
            stages: STAGES
                .iter()
                .zip(&obs.stages)
                .map(|(stage, h)| StageLatency {
                    stage,
                    snapshot: h.snapshot(),
                })
                .collect(),
        };
        ServerStats {
            cache: self.cache.stats(),
            coalesced: obs.coalesced.get(),
            batches: obs.batches.get(),
            structures: read_lock(&self.structures).len(),
            served: self.served.snapshot(),
            latency,
            supervision: SupervisionStats {
                worker_panics: obs.worker_panics.get(),
                respawns: obs.respawns.get(),
                workers_alive: obs.workers_alive.get() as usize,
            },
        }
    }

    /// The non-empty latency classes: each name's own pair, then the
    /// shared `other` pair once, sorted by structure then class.
    fn class_latencies(&self) -> Vec<ClassLatency> {
        let structures = read_lock(&self.structures);
        let own = structures
            .iter()
            .filter(|(_, r)| !Arc::ptr_eq(&r.classes, &self.other_classes))
            .map(|(name, r)| (name.as_str(), &*r.classes));
        let mut classes = Vec::new();
        for (name, pair) in own.chain([(OVERFLOW_LABEL, &*self.other_classes)]) {
            for (hit, h) in [(true, &pair.hit), (false, &pair.miss)] {
                let snapshot = h.snapshot();
                if !snapshot.is_empty() {
                    classes.push(ClassLatency {
                        structure: name.to_owned(),
                        hit,
                        snapshot,
                    });
                }
            }
        }
        classes.sort_by(|a, b| (&a.structure, !a.hit).cmp(&(&b.structure, !b.hit)));
        classes
    }
}

/// A raw text-protocol request: structure name, string-named sizes,
/// and submission options (see [`ServeHandle::submit_raw_batch`]).
pub type RawRequest = (String, Vec<(String, usize)>, RequestOptions);

/// Per-request submission options: an optional deadline and an
/// optional injected worker-side fault (chaos testing only).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestOptions {
    /// If set, the dispatcher sheds the request with
    /// [`ServeError::DeadlineExceeded`] when the deadline has passed
    /// before grouping. Expiry is checked at dispatch, not mid-solve:
    /// a request that made it into a batch is always answered with its
    /// result.
    pub deadline: Option<Instant>,
    /// Deterministic fault the worker executes for this request (see
    /// [`faults`]). `None` in production traffic.
    pub fault: Option<SolveFault>,
}

impl RequestOptions {
    /// Options with a deadline this far in the future.
    pub fn with_deadline_in(timeout: std::time::Duration) -> RequestOptions {
        RequestOptions {
            deadline: Some(Instant::now() + timeout),
            fault: None,
        }
    }
}

/// One parsed request on its way to the dispatcher.
struct Request {
    registration: Arc<Registration>,
    bindings: DimBindings,
    /// Deadline/fault options.
    options: RequestOptions,
    slot: ReplySlot,
}

enum Incoming {
    Requests(Vec<Request>),
    Shutdown,
}

enum Job {
    Batch {
        registration: Arc<Registration>,
        /// The region signature every item of the job binds into.
        sig: Vec<i8>,
        items: Vec<BatchItem>,
        /// When the dispatcher started grouping the round this job
        /// came from (end of the `queue` span).
        grouped: Instant,
        /// When the dispatcher formed this job (per-request queueing
        /// latency is `dispatched - enqueued`).
        dispatched: Instant,
    },
    Stop,
}

struct BatchItem {
    bindings: DimBindings,
    /// All requests wanting exactly these bindings: one instantiate,
    /// fanned back out.
    replies: Vec<ReplySlot>,
    /// The merged injected fault of the coalesced requests (killing
    /// beats caught panic beats the longest delay).
    fault: Option<SolveFault>,
}

/// One admitted request's pending reply, with the timestamps it was
/// enqueued/submitted at (each coalesced request keeps its own latency
/// and trace).
struct ReplySlot {
    name: String,
    /// When the submission call started (trace origin).
    enqueued: Instant,
    /// When the request was handed to the dispatcher (end of the
    /// `admit` span: admission + parse done).
    submitted: Instant,
    /// Monotone per-server trace id.
    trace_id: u64,
    tx: Sender<ServeReply>,
    /// The admission slot; released right before the reply is sent.
    permit: Permit,
}

impl ReplySlot {
    /// Sends the reply, releasing the admission slot *first* so a
    /// caller that has received all its replies observes zero of its
    /// permits outstanding (closed-loop replay depends on this for
    /// deterministic admission).
    fn send(self, result: Result<Served, ServeError>) {
        let ReplySlot {
            name, tx, permit, ..
        } = self;
        drop(permit);
        tx.send(ServeReply {
            structure: name,
            result,
        })
        .ok();
    }
}

/// Merges two injected faults for coalesced requests: a kill beats a
/// caught panic beats the longest delay.
fn merge_faults(a: Option<SolveFault>, b: Option<SolveFault>) -> Option<SolveFault> {
    use SolveFault::{Delay, Kill, Panic};
    match (a, b) {
        (None, f) | (f, None) => f,
        (Some(Kill), _) | (_, Some(Kill)) => Some(Kill),
        (Some(Panic), _) | (_, Some(Panic)) => Some(Panic),
        (Some(Delay(x)), Some(Delay(y))) => Some(Delay(x.max(y))),
    }
}

/// A cheap, clonable submission handle onto a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    submit: Sender<Incoming>,
}

impl ServeHandle {
    /// Submits one request; returns a [`Ticket`] for the reply.
    pub fn submit(&self, structure: &str, bindings: DimBindings) -> Ticket {
        self.submit_opts(structure, bindings, RequestOptions::default())
    }

    /// Submits one request with explicit [`RequestOptions`].
    pub fn submit_opts(
        &self,
        structure: &str,
        bindings: DimBindings,
        options: RequestOptions,
    ) -> Ticket {
        self.submit_batch_opts(vec![(structure.to_owned(), bindings, options)])
            .pop()
            .expect("one ticket per request")
    }

    /// Submits one request, but reports admission failures to the
    /// *caller* instead of through the ticket: `Err(QueueFull)` when
    /// the in-flight capacity is reached, `Err(ShuttingDown)` when the
    /// server no longer admits work. A refused request is never
    /// counted — from the server's view it was not submitted.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] as above.
    pub fn try_submit(
        &self,
        structure: &str,
        bindings: DimBindings,
        options: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        let enqueued = Instant::now();
        let permit = self.shared.gate.try_acquire()?;
        let (tx, rx) = channel();
        let ticket = Ticket {
            rx,
            structure: structure.to_owned(),
        };
        let structures = read_lock(&self.shared.structures);
        let Some(registration) = structures.get(structure) else {
            drop(permit);
            self.shared.served.record(ServedKind::Rejected, 1);
            tx.send(ServeReply {
                structure: structure.to_owned(),
                result: Err(ServeError::UnknownStructure(structure.to_owned())),
            })
            .ok();
            return Ok(ticket);
        };
        let request = Request {
            registration: Arc::clone(registration),
            bindings,
            options,
            slot: ReplySlot {
                name: structure.to_owned(),
                enqueued,
                submitted: Instant::now(),
                trace_id: self.shared.obs.next_trace_id(),
                tx,
                permit,
            },
        };
        drop(structures);
        if self.submit.send(Incoming::Requests(vec![request])).is_err() {
            return Err(SubmitError::ShuttingDown);
        }
        Ok(ticket)
    }

    /// Submits several requests at once. They enter the dispatcher as
    /// one unit, so requests in the batch that share a structure and
    /// size region are grouped — and identical bindings coalesce into
    /// a single instantiate.
    pub fn submit_batch(&self, requests: Vec<(String, DimBindings)>) -> Vec<Ticket> {
        self.submit_batch_opts(
            requests
                .into_iter()
                .map(|(name, bindings)| (name, bindings, RequestOptions::default()))
                .collect(),
        )
    }

    /// [`submit_batch`](Self::submit_batch) with per-request options.
    pub fn submit_batch_opts(
        &self,
        requests: Vec<(String, DimBindings, RequestOptions)>,
    ) -> Vec<Ticket> {
        self.submit_with(requests, |_, bindings| Ok(bindings))
    }

    /// Submits and blocks for the reply.
    pub fn solve(&self, structure: &str, bindings: DimBindings) -> ServeReply {
        self.submit(structure, bindings).wait()
    }

    /// Submits requests whose variables are *named by string* — the
    /// untrusted text-protocol path. Names are resolved against the
    /// registered structure's own variable vocabulary; an unknown name
    /// is rejected with [`ServeError::BadRequest`] **without being
    /// interned** (`DimVar` interning is process-wide and permanent,
    /// so a front door must never intern arbitrary client strings).
    pub fn submit_raw_batch(&self, requests: Vec<RawRequest>) -> Vec<Ticket> {
        self.submit_with(requests, |registration, vars| {
            bind_named_vars(registration.key.vars(), &vars).map_err(ServeError::BadRequest)
        })
    }

    /// The shared submission path: per request, create a ticket, look
    /// the structure up, resolve the payload into bindings, acquire an
    /// admission permit, then ship everything admitted to the
    /// dispatcher as one unit. Failures — unknown structure, bad
    /// payload, queue full, shutting down — reply immediately through
    /// the ticket. Admission is decided here, before the dispatcher
    /// sees anything, so within one batch the set of shed requests is
    /// deterministic: with `k` permits free, exactly the first `k`
    /// admissible requests enter.
    fn submit_with<T>(
        &self,
        requests: Vec<(String, T, RequestOptions)>,
        mut resolve: impl FnMut(&Registration, T) -> Result<DimBindings, ServeError>,
    ) -> Vec<Ticket> {
        let mut tickets = Vec::with_capacity(requests.len());
        let mut parsed = Vec::with_capacity(requests.len());
        let enqueued = Instant::now();
        let mut rejected = 0u64;
        let mut overloaded = 0u64;
        let structures = read_lock(&self.shared.structures);
        for (name, payload, options) in requests {
            let (tx, rx) = channel();
            tickets.push(Ticket {
                rx,
                structure: name.clone(),
            });
            let admitted = structures
                .get(&name)
                .ok_or_else(|| ServeError::UnknownStructure(name.clone()))
                .and_then(|registration| {
                    let bindings = resolve(registration, payload)?;
                    let permit = self.shared.gate.try_acquire().map_err(|e| match e {
                        SubmitError::QueueFull { .. } => ServeError::QueueFull,
                        SubmitError::ShuttingDown => ServeError::Closed,
                    })?;
                    Ok((registration, bindings, permit))
                });
            match admitted {
                Ok((registration, bindings, permit)) => parsed.push(Request {
                    registration: Arc::clone(registration),
                    bindings,
                    options,
                    slot: ReplySlot {
                        name,
                        enqueued,
                        submitted: enqueued, // overwritten below, once per batch
                        trace_id: self.shared.obs.next_trace_id(),
                        tx,
                        permit,
                    },
                }),
                Err(e) => {
                    if e == ServeError::QueueFull {
                        overloaded += 1;
                    } else {
                        rejected += 1;
                    }
                    tx.send(ServeReply {
                        structure: name,
                        result: Err(e),
                    })
                    .ok();
                }
            }
        }
        drop(structures);
        if rejected > 0 {
            self.shared.served.record(ServedKind::Rejected, rejected);
        }
        if overloaded > 0 {
            self.shared
                .served
                .record(ServedKind::RejectedOverload, overloaded);
        }
        if !parsed.is_empty() {
            // The whole batch is handed over at one instant; stamping
            // it here (after admission and parsing) closes every
            // request's `admit` span.
            let submitted = Instant::now();
            for request in &mut parsed {
                request.slot.submitted = submitted;
            }
            if self.submit.send(Incoming::Requests(parsed)).is_err() {
                // Server shut down: tickets resolve to `Closed` when
                // their senders (and permits) drop with nothing sent.
            }
        }
        tickets
    }

    /// Blocking single-request form of
    /// [`submit_raw_batch`](Self::submit_raw_batch).
    pub fn solve_raw(
        &self,
        structure: &str,
        vars: Vec<(String, usize)>,
        options: RequestOptions,
    ) -> ServeReply {
        self.submit_raw_batch(vec![(structure.to_owned(), vars, options)])
            .pop()
            .expect("one ticket per request")
            .wait()
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The names of the registered structures, sorted.
    pub fn structure_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_lock(&self.shared.structures).keys().cloned().collect();
        names.sort();
        names
    }

    /// The retained slowest traces, slowest first. Capacity is
    /// [`ServeConfig::slow_trace_capacity`]; each trace's spans tile
    /// its total exactly (see [`STAGES`]).
    pub fn slow_traces(&self) -> Vec<Trace> {
        self.shared.obs.ring.snapshot()
    }

    /// The slow traces as a stable [`TRACE_FORMAT`] (`gmc-traces/1`)
    /// JSON document — the `SLOW` wire command's payload.
    pub fn slow_traces_json(&self) -> String {
        gmc_obs::trace::traces_json(self.slow_traces())
    }

    /// Every metric the server keeps — serve counters, per-stage and
    /// per-class latency histograms, cache/shard/structure counters,
    /// trace-ring counters — rendered as a Prometheus text exposition
    /// (the `METRICS` wire command's payload, without the `# EOF`
    /// terminator).
    pub fn metrics_prometheus(&self) -> String {
        metrics::render_prometheus(&self.shared)
    }

    /// Cache introspection as a single-line JSON document: totals,
    /// per-shard counters, and per-structure hit/miss/region counts
    /// (the `CACHE` wire command's payload).
    pub fn cache_introspection_json(&self) -> String {
        metrics::render_cache(&self.shared)
    }
}

/// The serving front door: worker pool + dispatcher over a shared
/// [`PlanCache`].
///
/// # Example
///
/// ```
/// use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
/// use gmc_kernels::KernelRegistry;
/// use gmc_serve::{ServeConfig, Server};
/// use std::sync::Arc;
///
/// let registry = Arc::new(KernelRegistry::blas_lapack());
/// let server = Server::start(registry, ServeConfig::default());
/// let (n, m) = (Dim::var("n"), Dim::var("m"));
/// let chain = SymChain::new(vec![
///     SymFactor::plain(SymOperand::new("A", n, m)),
///     SymFactor::plain(SymOperand::new("B", m, n)),
/// ])
/// .unwrap();
/// server.register("X", chain).unwrap();
///
/// let reply = server
///     .handle()
///     .solve("X", DimBindings::new().with("n", 100).with("m", 20));
/// let served = reply.result.unwrap();
/// assert_eq!(served.kernels, vec!["GEMM_NN"]);
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    submit: Sender<Incoming>,
    dispatcher: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    /// Every worker thread ever spawned (including respawns); shared
    /// with the supervisor, drained at shutdown.
    worker_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// What a [`WorkerGuard`] reports when its thread ends.
enum WorkerEvent {
    /// The worker unwound out of its loop (a panic escaped).
    Panicked,
    /// The worker exited normally (stop message or closed channel).
    Stopped,
}

/// Sits on a worker thread's stack and reports how the thread ended:
/// its `Drop` runs during unwinding too, so a panicking worker still
/// notifies the supervisor.
struct WorkerGuard {
    events: Sender<WorkerEvent>,
    panicked: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let event = if self.panicked {
            WorkerEvent::Panicked
        } else {
            WorkerEvent::Stopped
        };
        self.events.send(event).ok();
    }
}

/// Spawns one supervised worker thread.
fn spawn_worker(
    id: usize,
    shared: &Arc<Shared>,
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    events: &Sender<WorkerEvent>,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let job_rx = Arc::clone(job_rx);
    let events = events.clone();
    std::thread::Builder::new()
        .name(format!("gmc-serve-worker-{id}"))
        .spawn(move || {
            let mut guard = WorkerGuard {
                events,
                panicked: true,
            };
            worker_loop(&shared, &job_rx);
            guard.panicked = false;
        })
}

/// How a finished [`Server::shutdown`] went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Worker threads that died by panic over the server's lifetime
    /// (injected faults included).
    pub worker_panics: u64,
    /// Workers the supervisor respawned.
    pub respawns: u64,
    /// Whether the dispatcher thread itself panicked.
    pub dispatcher_panicked: bool,
}

impl ShutdownReport {
    /// Whether the pool stayed healthy end to end.
    pub fn is_clean(&self) -> bool {
        self.worker_panics == 0 && !self.dispatcher_panicked
    }
}

impl fmt::Display for ShutdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean shutdown")
        } else {
            write!(
                f,
                "shutdown with {} worker panics ({} respawned){}",
                self.worker_panics,
                self.respawns,
                if self.dispatcher_panicked {
                    ", dispatcher panicked"
                } else {
                    ""
                }
            )
        }
    }
}

impl Server {
    /// Starts the worker pool, dispatcher and supervisor.
    pub fn start(registry: Arc<KernelRegistry>, config: ServeConfig) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            cache: PlanCache::new(registry, config.inference),
            structures: RwLock::new(HashMap::new()),
            other_classes: Arc::default(),
            served: CounterCell::default(),
            gate: Arc::new(AdmissionGate::new(config.queue_capacity)),
            obs: ObsLayer::new(config.slow_trace_capacity),
        });
        shared.obs.workers_alive.set(workers as u64);

        let (submit_tx, submit_rx) = channel::<Incoming>();
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (event_tx, event_rx) = channel::<WorkerEvent>();

        let worker_handles = Arc::new(Mutex::new(Vec::with_capacity(workers)));
        for i in 0..workers {
            let handle = spawn_worker(i, &shared, &job_rx, &event_tx).expect("spawn worker thread");
            mutex_lock(&worker_handles).push(handle);
        }

        let supervisor = {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let worker_handles = Arc::clone(&worker_handles);
            let budget = config.restart_budget;
            std::thread::Builder::new()
                .name("gmc-serve-supervisor".to_owned())
                .spawn(move || {
                    supervisor_loop(
                        &shared,
                        &job_rx,
                        &event_rx,
                        &event_tx,
                        &worker_handles,
                        workers,
                        budget,
                    );
                })
                .expect("spawn supervisor thread")
        };

        let dispatcher = {
            let shared = Arc::clone(&shared);
            let max_batch = config.max_batch.max(1);
            std::thread::Builder::new()
                .name("gmc-serve-dispatcher".to_owned())
                .spawn(move || dispatcher_loop(&shared, &submit_rx, &job_tx, workers, max_batch))
                .expect("spawn dispatcher thread")
        };

        Server {
            shared,
            submit: submit_tx,
            dispatcher: Some(dispatcher),
            supervisor: Some(supervisor),
            worker_handles,
        }
    }

    /// Registers (or replaces) a structure under `name`. This is the
    /// parse-once step: requests reference the name and never carry a
    /// chain, and everything that depends only on the chain's structure
    /// — its plan-cache key, its variables, its latency class — is
    /// fixed here rather than per request.
    ///
    /// A re-registered name keeps its latency class. The first
    /// [`MAX_LATENCY_CLASSES`] names get a class of their own; later
    /// names, and a name that is itself `other`, share the `other`
    /// class.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` so registration can gain
    /// validation without breaking callers.
    pub fn register(&self, name: &str, chain: SymChain) -> Result<(), ServeError> {
        let shared = &self.shared;
        let key = shared.cache.prepare(&chain);
        let mut structures = write_lock(&shared.structures);
        let own_classes = || {
            structures
                .values()
                .filter(|r| !Arc::ptr_eq(&r.classes, &shared.other_classes))
                .count()
        };
        let (classes, overflowed) = match structures.get(name) {
            Some(old) => (Arc::clone(&old.classes), old.overflowed),
            None if name == OVERFLOW_LABEL => (Arc::clone(&shared.other_classes), false),
            None if own_classes() >= MAX_LATENCY_CLASSES => {
                (Arc::clone(&shared.other_classes), true)
            }
            None => (Arc::default(), false),
        };
        let registration = Registration {
            chain,
            key,
            classes,
            overflowed,
        };
        structures.insert(name.to_owned(), Arc::new(registration));
        Ok(())
    }

    /// Registers `name` and pre-records a plan for every size region
    /// the chain can reach, so each request for it is a cache hit.
    /// Returns the number of regions recorded.
    ///
    /// # Errors
    ///
    /// [`PlanError::Enumeration`] if the chain is too large to
    /// enumerate; the structure is still registered in that case (it
    /// just warms up on demand).
    pub fn register_pre_enumerated(&self, name: &str, chain: SymChain) -> Result<usize, PlanError> {
        self.register(name, chain.clone())
            .expect("registration is infallible");
        self.shared.cache.pre_enumerate_regions(&chain)
    }

    /// The shared plan cache (e.g. for warm-starting from a plan store
    /// before traffic arrives, or saving it after).
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// A clonable submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
            submit: self.submit.clone(),
        }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops the dispatcher and workers and waits for them. In-flight
    /// requests are answered first; requests submitted afterwards are
    /// refused at admission ([`ServeError::Closed`]). Never panics:
    /// threads that died by panic are reported in the returned
    /// [`ShutdownReport`] instead.
    pub fn shutdown(mut self) -> ShutdownReport {
        // Close the gate first so the supervisor stops respawning and
        // racing submissions are answered `Closed` instead of queueing
        // behind the shutdown message.
        self.shared.gate.close();
        self.submit.send(Incoming::Shutdown).ok();
        let mut report = ShutdownReport::default();
        if let Some(d) = self.dispatcher.take() {
            report.dispatcher_panicked = d.join().is_err();
        }
        if let Some(s) = self.supervisor.take() {
            // The supervisor exits once every worker reported in; a
            // panicked supervisor would leak workers, but never the
            // process — swallow it like a worker panic.
            s.join().ok();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *mutex_lock(&self.worker_handles));
        for w in handles {
            // Panicked workers were already counted by their guards.
            w.join().ok();
        }
        report.worker_panics = self.shared.obs.worker_panics.get();
        report.respawns = self.shared.obs.respawns.get();
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort shutdown if `shutdown()` was not called: close
        // admission, ask the dispatcher to stop and detach.
        self.shared.gate.close();
        self.submit.send(Incoming::Shutdown).ok();
    }
}

/// The supervisor: consumes worker-exit events, respawns panicked
/// workers while the restart budget lasts, and closes the admission
/// gate if the pool ever dies entirely (so new submissions fail fast
/// instead of queueing forever). Exits once every worker has reported
/// in after the pool winds down.
fn supervisor_loop(
    shared: &Arc<Shared>,
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    events: &Receiver<WorkerEvent>,
    event_tx: &Sender<WorkerEvent>,
    worker_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    initial_workers: usize,
    restart_budget: usize,
) {
    let mut alive = initial_workers;
    let mut next_id = initial_workers;
    let mut respawns = 0usize;
    while alive > 0 {
        match events.recv() {
            Ok(WorkerEvent::Stopped) => {
                alive -= 1;
                shared.obs.workers_alive.set(alive as u64);
            }
            Ok(WorkerEvent::Panicked) => {
                alive -= 1;
                shared.obs.worker_panics.inc();
                let respawn = !shared.gate.is_closed() && respawns < restart_budget;
                if respawn {
                    match spawn_worker(next_id, shared, job_rx, event_tx) {
                        Ok(handle) => {
                            mutex_lock(worker_handles).push(handle);
                            next_id += 1;
                            respawns += 1;
                            alive += 1;
                            shared.obs.respawns.inc();
                        }
                        Err(e) => {
                            eprintln!("gmc-serve: respawn failed: {e}");
                        }
                    }
                }
                shared.obs.workers_alive.set(alive as u64);
                if alive == 0 {
                    // Pool dead, budget gone: stop admitting work so
                    // callers get `Closed` instead of a silent hang.
                    shared.gate.close();
                }
            }
            Err(_) => break,
        }
    }
}

fn dispatcher_loop(
    shared: &Shared,
    submit_rx: &Receiver<Incoming>,
    job_tx: &Sender<Job>,
    workers: usize,
    max_batch: usize,
) {
    loop {
        let first = match submit_rx.recv() {
            Ok(msg) => msg,
            Err(_) => break, // all senders gone
        };
        let mut shutdown = false;
        let mut pending: Vec<Request> = Vec::new();
        let absorb = |msg: Incoming, pending: &mut Vec<Request>, shutdown: &mut bool| match msg {
            Incoming::Requests(reqs) => pending.extend(reqs),
            Incoming::Shutdown => *shutdown = true,
        };
        absorb(first, &mut pending, &mut shutdown);
        // Drain whatever else is already queued: the wider the window,
        // the more in-flight requests group and coalesce.
        while pending.len() < max_batch && !shutdown {
            match submit_rx.try_recv() {
                Ok(msg) => absorb(msg, &mut pending, &mut shutdown),
                Err(_) => break,
            }
        }
        if shutdown {
            // Requests accepted before the shutdown message must still
            // be answered: drain everything already queued (later
            // Shutdown duplicates are inert).
            while let Ok(msg) = submit_rx.try_recv() {
                absorb(msg, &mut pending, &mut shutdown);
            }
        }

        // Group by (registration, size region); coalesce identical
        // bindings within a group. The registration is identified by
        // its `Arc` pointer — every request for a name shares it — so
        // grouping costs one pointer compare plus the region signature,
        // which travels with the job so the worker never recomputes
        // it. (Two *names* registered with one structure group
        // separately here; the cache's per-shard write mutex still
        // coalesces their recordings.)
        type GroupKey = (usize, Vec<i8>);
        type GroupMap = HashMap<
            GroupKey,
            (
                Arc<Registration>,
                HashMap<DimBindings, (Vec<ReplySlot>, Option<SolveFault>)>,
            ),
        >;
        let mut groups: GroupMap = HashMap::new();
        let grouped = Instant::now();
        for req in pending {
            // Expired deadline: shed before grouping. The request
            // never reaches a worker, so it is `rejected` (with the
            // `expired` sub-count) and its latency lands in the
            // dedicated `expired` histogram, not `total`.
            if req
                .options
                .deadline
                .is_some_and(|deadline| grouped >= deadline)
            {
                shared.served.record(ServedKind::Expired, 1);
                shared
                    .obs
                    .expired
                    .record(nanos_between(req.slot.enqueued, grouped));
                req.slot.send(Err(ServeError::DeadlineExceeded));
                continue;
            }
            let sizes = match req.registration.chain.bind_dims(&req.bindings) {
                Ok(sizes) => sizes,
                Err(e) => {
                    // Unbindable request: answer immediately, nothing
                    // to dispatch.
                    shared.served.record(ServedKind::Rejected, 1);
                    req.slot
                        .send(Err(ServeError::Plan(PlanError::Chain(e.into()))));
                    continue;
                }
            };
            let key = (
                Arc::as_ptr(&req.registration) as usize,
                region_signature(&sizes),
            );
            let (_, items) = groups
                .entry(key)
                .or_insert_with(|| (Arc::clone(&req.registration), HashMap::new()));
            // Identical bindings coalesce into one instantiate; the
            // hash lookup keeps grouping O(requests).
            let (replies, fault) = items.entry(req.bindings).or_default();
            if !replies.is_empty() {
                shared.obs.coalesced.inc();
            }
            *fault = merge_faults(*fault, req.options.fault);
            replies.push(req.slot);
        }
        // Emit each group as jobs of at most MAX_ITEMS_PER_JOB items,
        // so a single hot region's independent hit instantiates spread
        // across the pool instead of serializing on one worker.
        // (Chunks of one miss group may race the recording; the
        // cache's per-shard write mutex still records exactly once and
        // serves the losers as hits.)
        let dispatched = Instant::now();
        for ((_, sig), (registration, by_bindings)) in groups {
            let mut items: Vec<BatchItem> = by_bindings
                .into_iter()
                .map(|(bindings, (replies, fault))| BatchItem {
                    bindings,
                    replies,
                    fault,
                })
                .collect();
            while !items.is_empty() {
                let rest = items.split_off(items.len().min(MAX_ITEMS_PER_JOB));
                shared.obs.batches.inc();
                if job_tx
                    .send(Job::Batch {
                        registration: Arc::clone(&registration),
                        sig: sig.clone(),
                        items,
                        grouped,
                        dispatched,
                    })
                    .is_err()
                {
                    return; // workers gone
                }
                items = rest;
            }
        }

        if shutdown {
            for _ in 0..workers {
                job_tx.send(Job::Stop).ok();
            }
            break;
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_owned())
}

fn worker_loop(shared: &Shared, job_rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match job {
            Ok(Job::Batch {
                registration,
                sig,
                items,
                grouped,
                dispatched,
            }) => {
                // A `Kill` fault takes the worker down *after* the
                // whole job is answered, so no ticket of this job is
                // ever lost; the supervisor respawns the thread.
                let mut kill_after_job = false;
                for item in items {
                    // One instantiate per distinct binding; the first
                    // item of a miss-group records the region, the rest
                    // of the group hits the fresh plan. The solve runs
                    // under `catch_unwind`: a panicking job answers its
                    // tickets `Internal` instead of poisoning the pool.
                    // Injected faults fire before the cache is touched,
                    // so a fault never leaves shared state mid-update.
                    let fault = item.fault;
                    if fault == Some(SolveFault::Kill) {
                        kill_after_job = true;
                    }
                    let solve_started = Instant::now();
                    let outcome = if kill_after_job {
                        // Once a kill is pending, fail the rest of the
                        // job fast: the thread is about to die anyway.
                        Err(format!("{FAULT_PANIC_MARKER}: worker killed"))
                    } else {
                        catch_unwind(AssertUnwindSafe(|| {
                            match fault {
                                Some(SolveFault::Delay(d)) => std::thread::sleep(d),
                                Some(SolveFault::Panic) => {
                                    panic!("{FAULT_PANIC_MARKER}: injected worker panic")
                                }
                                _ => {}
                            }
                            shared.cache.solve_keyed(
                                &registration.key,
                                &registration.chain,
                                &item.bindings,
                                &sig,
                            )
                        }))
                        .map_err(|payload| panic_message(payload.as_ref()))
                    };
                    let solve_done = Instant::now();
                    let (kind, timing, label, class) = match &outcome {
                        Ok(Ok((_, oc, timing))) => {
                            let pair = &registration.classes;
                            let (kind, class) = if oc.is_hit() {
                                (ServedKind::Hit, &pair.hit)
                            } else {
                                (ServedKind::Miss, &pair.miss)
                            };
                            (kind, *timing, oc.label(), Some(class))
                        }
                        Ok(Err(_)) => (ServedKind::Failed, SolveTiming::default(), "plan", None),
                        Err(_) => (ServedKind::Failed, SolveTiming::default(), "internal", None),
                    };
                    // One consistent counter update for the whole item,
                    // then one latency sample per *request* (coalesced
                    // waiters each keep their own enqueue time).
                    let requests = item.replies.len() as u64;
                    shared.served.record(kind, requests);
                    if class.is_some() && registration.overflowed {
                        shared.obs.class_overflow.add(requests);
                    }
                    for slot in item.replies {
                        let result = match &outcome {
                            Ok(Ok((solution, outcome, _))) => {
                                Ok(Served::from_solution(solution, *outcome))
                            }
                            Ok(Err(e)) => Err(ServeError::Plan(e.clone())),
                            Err(msg) => Err(ServeError::Internal(msg.clone())),
                        };
                        // Stage spans tile enqueued → done exactly; the
                        // `solve` span subtracts the cache's measured
                        // lookup time so `lookup + solve` equals the
                        // wall time the worker spent in the cache.
                        // `total` (enqueue → solve done) and `queue`
                        // (enqueue → dispatch) are sums of the leading
                        // spans. Every histogram records *after* the
                        // served counters, so no count runs ahead of
                        // `completed`, and at quiescence every completed
                        // request has exactly one sample in each.
                        let done = Instant::now();
                        let durs: [u64; STAGES.len()] = [
                            nanos_between(slot.enqueued, slot.submitted),
                            nanos_between(slot.submitted, grouped),
                            nanos_between(grouped, dispatched),
                            nanos_between(dispatched, solve_started),
                            timing.lookup_ns,
                            nanos_between(solve_started, solve_done)
                                .saturating_sub(timing.lookup_ns),
                            nanos_between(solve_done, done),
                        ];
                        for (hist, dur) in shared.obs.stages.iter().zip(durs) {
                            hist.record(dur);
                        }
                        let to_solved: u64 = durs[..6].iter().sum();
                        shared.obs.total.record(to_solved);
                        shared.obs.queue.record(durs[..3].iter().sum());
                        if let Some(class) = class {
                            class.record(to_solved);
                        }
                        let total_ns: u64 = durs.iter().sum();
                        shared.obs.ring.offer_with(total_ns, || {
                            let mut start_ns = 0u64;
                            let spans = STAGES
                                .iter()
                                .zip(durs)
                                .map(|(stage, dur_ns)| {
                                    let span = Span {
                                        stage,
                                        start_ns,
                                        dur_ns,
                                    };
                                    start_ns += dur_ns;
                                    span
                                })
                                .collect();
                            Trace {
                                id: slot.trace_id,
                                label: slot.name.clone(),
                                class: label.to_owned(),
                                total_ns,
                                spans,
                            }
                        });
                        slot.send(result);
                    }
                }
                if kill_after_job {
                    // Every ticket of the job was answered above; dying
                    // here loses nothing and exercises the supervisor.
                    panic!("{FAULT_PANIC_MARKER}: injected worker kill");
                }
            }
            Ok(Job::Stop) | Err(_) => break,
        }
    }
}

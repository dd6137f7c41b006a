//! Continuous-batching serving scheduler over [`ServeEngine`].
//!
//! Real long-context serving systems do not run one request to completion
//! before starting the next: they keep a request queue, admit sessions under
//! memory bounds, and each engine *tick* assemble a mixed batch of prefill
//! chunks (new requests working through their prompts) and decode steps
//! (admitted requests generating tokens) under a token budget. This crate
//! provides that layer for the ClusterKV serving stack (DESIGN.md §5):
//!
//! * [`Request`] — prompt, generation length, priority and arrival time (an
//!   open-loop trace, e.g. from
//!   `clusterkv_workloads::harness::generate_traffic`).
//! * [`Scheduler`] — owns a [`ServeEngine`], a waiting queue and the running
//!   set; [`Scheduler::tick`] admits, assembles and executes one mixed
//!   batch, advancing a *modeled* clock priced by the engine's roofline
//!   [`LatencyModel`](clusterkv_model::LatencyModel); [`Scheduler::run`]
//!   ticks until every submitted request completed.
//! * [`SchedPolicy`] — FCFS and priority-with-aging continuous batching,
//!   plus the run-to-completion baseline real systems moved away from.
//! * [`ServingReport`] / [`RequestMetrics`] — per-request TTFT, mean TBT and
//!   end-to-end latency, plus the released session's cache accounting,
//!   exportable as `clusterkv_metrics::RequestRow`s.
//!
//! Scheduling never changes what a request generates: sessions are fully
//! isolated and chunked prefill is byte-identical to monolithic prefill, so
//! every policy produces identical per-request token streams and differs
//! only in *when* tokens come out (the modeled timestamps). The scheduler
//! itself is deterministic — same submissions, same report, at any
//! `RAYON_NUM_THREADS` — which `tests/scheduler.rs` enforces.

#![warn(missing_docs)]

use clusterkv_faults::{FaultInjector, FaultPlan, IntegrityStats};
use clusterkv_kvcache::device::Seconds;
use clusterkv_kvcache::types::Bytes;
use clusterkv_metrics::RequestRow;
use clusterkv_model::latency::StepCost;
use clusterkv_model::{EngineError, ServeEngine, SessionId, SessionReport};
use serde::{Deserialize, Serialize};

/// Default prefill chunk size (tokens per session per tick), matching the
/// chunk sizes production chunked-prefill systems use relative to their
/// batch budget.
pub const DEFAULT_CHUNK_TOKENS: usize = 64;

/// Default per-tick token budget shared by prefill chunks and decode steps.
pub const DEFAULT_TICK_TOKEN_BUDGET: usize = 256;

/// Opaque handle for a submitted request (submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One serving request of an open-loop trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Prompt token ids.
    pub prompt: Vec<usize>,
    /// Number of tokens to generate (must be at least 1).
    pub max_new_tokens: usize,
    /// Priority class; larger is more urgent. Ignored by FCFS.
    pub priority: u32,
    /// Modeled arrival time. The scheduler never starts a request before
    /// its arrival (open-loop traffic).
    pub arrival_time: Seconds,
    /// Modeled completion deadline. When the clock passes it, the request
    /// is cancelled at the end of the tick — whether still queued or
    /// mid-generation — and reported as [`RequestOutcome::TimedOut`].
    /// `None` disables the timeout.
    pub deadline: Option<Seconds>,
}

/// Terminal state of a request in a [`ServingReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// The request generated its full `max_new_tokens` stream.
    Completed,
    /// Completed in full, but only after `n` crash-retry re-admissions
    /// (the stream is still byte-identical to a fault-free run).
    Retried {
        /// Number of checkpoint/restore round trips the request survived.
        n: u32,
    },
    /// The modeled clock passed the request's deadline before completion;
    /// the partial stream (possibly empty) is retained in the metrics.
    TimedOut,
    /// The scheduler gave up on the request for `reason` (e.g. the crash
    /// retry budget was exhausted).
    Cancelled {
        /// Why the request was abandoned.
        reason: String,
    },
}

impl RequestOutcome {
    /// Whether the request delivered its full stream.
    pub fn is_completed(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Completed | RequestOutcome::Retried { .. }
        )
    }

    /// Stable kebab-case name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::Retried { .. } => "retried",
            RequestOutcome::TimedOut => "timed-out",
            RequestOutcome::Cancelled { .. } => "cancelled",
        }
    }
}

/// Queue-ordering policy of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Continuous batching, first come first served: arrived requests are
    /// admitted in arrival order (ties by submission order).
    Fcfs,
    /// Continuous batching with priority plus aging: a waiting request's
    /// effective priority is `priority + aging_per_second · wait_time`, so
    /// low-priority requests cannot starve behind a stream of urgent ones —
    /// any positive rate eventually lifts them to the front
    /// (`admission_never_starves` in this crate's tests).
    PriorityAging {
        /// Effective-priority units gained per modeled second of waiting.
        /// Must be positive for the no-starvation guarantee.
        aging_per_second: f64,
    },
    /// The baseline continuous batching replaced: one request at a time,
    /// FCFS, prefilled and decoded to completion before the next is
    /// admitted. Exists so `exp_serving` can measure what interleaving buys.
    RunToCompletion,
}

impl SchedPolicy {
    /// Short name for tables and legends.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "CB-FCFS",
            SchedPolicy::PriorityAging { .. } => "CB-PriorityAging",
            SchedPolicy::RunToCompletion => "RunToCompletion",
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Queue-ordering policy.
    pub policy: SchedPolicy,
    /// Cap on concurrently admitted (running) requests. Must not exceed the
    /// engine's own session cap.
    pub max_sessions: usize,
    /// Prefill chunk size: at most this many prompt tokens of one session
    /// are forwarded per tick.
    pub chunk_tokens: usize,
    /// Per-tick token budget shared by decode steps (1 token each) and
    /// prefill chunks; decode is served first (tail latency), the remainder
    /// goes to prefill.
    pub tick_token_budget: usize,
    /// Admission bound on KV memory: the sum of every running request's
    /// worst-case KV footprint (`(prompt + max_new_tokens) ·
    /// kv_bytes_per_token`) never exceeds this. `None` disables the bound.
    pub kv_capacity: Option<Bytes>,
    /// Deterministic fault plan driving the scheduler's recovery seams:
    /// whole-session crash faults (checkpoint-release + bounded retry) and
    /// capacity-shrink pressure events (the degradation ladder). Defaults
    /// to [`FaultPlan::disabled`], under which every seam is a no-op.
    pub faults: FaultPlan,
    /// Cap on crash-retry re-admissions per request; a request that
    /// crashes more than this many times is reported as
    /// [`RequestOutcome::Cancelled`].
    pub max_retries: u32,
}

impl SchedConfig {
    /// A continuous-batching FCFS configuration with default chunk/budget
    /// sizes and no KV bound.
    pub fn fcfs(max_sessions: usize) -> Self {
        Self {
            policy: SchedPolicy::Fcfs,
            max_sessions,
            chunk_tokens: DEFAULT_CHUNK_TOKENS,
            tick_token_budget: DEFAULT_TICK_TOKEN_BUDGET,
            kv_capacity: None,
            faults: FaultPlan::disabled(),
            max_retries: 2,
        }
    }

    /// Replace the policy.
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the prefill chunk size.
    pub fn with_chunk_tokens(mut self, chunk_tokens: usize) -> Self {
        self.chunk_tokens = chunk_tokens;
        self
    }

    /// Replace the per-tick token budget.
    pub fn with_tick_token_budget(mut self, budget: usize) -> Self {
        self.tick_token_budget = budget;
        self
    }

    /// Bound admission by total worst-case KV bytes of running requests.
    pub fn with_kv_capacity(mut self, capacity: Bytes) -> Self {
        self.kv_capacity = Some(capacity);
        self
    }

    /// Drive the scheduler's recovery seams from a fault plan (crash
    /// faults, pressure events).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the crash-retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// Errors produced by the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The scheduler configuration failed validation.
    InvalidConfig(String),
    /// A submitted request can never be served (empty prompt, zero
    /// generation length, context overflow, or a worst-case KV footprint
    /// larger than the admission capacity).
    Unservable {
        /// Why the request was rejected.
        reason: String,
    },
    /// The underlying engine reported an error.
    Engine(EngineError),
    /// A tick made no progress although work remained (a bug guard; cannot
    /// happen for validated configurations).
    Stalled,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::InvalidConfig(msg) => write!(f, "invalid scheduler config: {msg}"),
            SchedError::Unservable { reason } => write!(f, "unservable request: {reason}"),
            SchedError::Engine(e) => write!(f, "engine error: {e}"),
            SchedError::Stalled => write!(f, "scheduler stalled with work remaining"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<EngineError> for SchedError {
    fn from(e: EngineError) -> Self {
        SchedError::Engine(e)
    }
}

/// A request waiting in the queue (arrived or future).
#[derive(Debug, Clone)]
struct Waiting {
    id: RequestId,
    prompt: Vec<usize>,
    max_new: usize,
    priority: u32,
    arrival: Seconds,
    /// Worst-case KV footprint reserved at admission.
    kv_bytes: Bytes,
    /// Modeled completion deadline (`None` = no timeout).
    deadline: Option<Seconds>,
    /// Crash retries consumed so far (0 for a fresh request; re-queued
    /// crash victims carry their count back into the queue).
    retries: u32,
    /// First admission time, preserved across crash-retry round trips so
    /// queueing-delay metrics charge the original admission decision.
    admitted_at: Option<Seconds>,
}

/// A request admitted into the engine.
#[derive(Debug)]
struct Running {
    id: RequestId,
    session: SessionId,
    prompt: Vec<usize>,
    max_new: usize,
    priority: u32,
    arrival: Seconds,
    admitted_at: Seconds,
    kv_bytes: Bytes,
    /// Prompt tokens forwarded so far (`fed == prompt.len()` ⇒ decodable).
    fed: usize,
    /// Generated token stream so far.
    tokens: Vec<usize>,
    first_token_at: Option<Seconds>,
    last_token_at: Seconds,
    /// Tick index of the last decode step this request ran (least recently
    /// served decodes first, so a tick budget smaller than the running set
    /// round-robins instead of starving the tail).
    last_decode_tick: u64,
    /// Modeled completion deadline (`None` = no timeout).
    deadline: Option<Seconds>,
    /// Crash retries consumed so far.
    retries: u32,
}

impl Running {
    /// The request's terminal record, its stream ending at `finished_at`.
    fn into_terminal(self, finished_at: Seconds) -> Terminal {
        Terminal {
            id: self.id,
            arrival: self.arrival,
            admitted_at: self.admitted_at,
            first_token_at: self.first_token_at,
            finished_at,
            prompt_len: self.prompt.len(),
            tokens: self.tokens,
            priority: self.priority,
            retries: self.retries,
        }
    }
}

/// Final measurements of one completed request. All times are modeled
/// (roofline device model), not wall clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMetrics {
    /// The request.
    pub id: RequestId,
    /// Arrival time of the request.
    pub arrival: Seconds,
    /// When the request was first admitted into the engine (crash retries
    /// keep the original admission time; for a request cancelled while
    /// still queued this equals its cancellation time).
    pub admitted_at: Seconds,
    /// When the first generated token completed (`None` for requests
    /// cancelled before generating anything).
    pub first_token_at: Option<Seconds>,
    /// When the last generated token completed — or, for cancelled /
    /// timed-out requests, when the scheduler abandoned them.
    pub finished_at: Seconds,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// The generated token stream (identical across scheduling policies).
    pub tokens: Vec<usize>,
    /// Priority class the request was submitted with.
    pub priority: u32,
    /// Token-level hit rate of the session's GPU cluster cache.
    pub cache_hit_rate: f64,
    /// Bytes recalled from CPU memory over PCIe.
    pub bytes_recalled: Bytes,
    /// Prompt positions served from the engine's cross-session prefix store
    /// (0 without a store, or for a cold prompt).
    pub shared_prefix_tokens: usize,
    /// Fraction of staged prefetch bytes a demand access later consumed
    /// (`0.0` when the engine never staged for this session — never NaN).
    pub prefetch_accuracy: f64,
    /// Fraction of the session's modeled PCIe time hidden behind compute by
    /// the overlap clock (`0.0` without prefetch — never NaN).
    pub hidden_transfer_fraction: f64,
    /// How the request ended (completed, retried-then-completed, timed
    /// out, or cancelled).
    pub outcome: RequestOutcome,
    /// Crash-retry re-admissions the request consumed.
    pub retries: u32,
    /// Fault-injection and KV-integrity accounting of the request's final
    /// session (checksum verifications, corruptions injected / detected /
    /// repaired, modeled transfer retries — DESIGN.md §11). Zero for
    /// requests cancelled before admission.
    pub integrity: IntegrityStats,
}

/// What the scheduler knows about a request when it reaches a terminal
/// state, whether it was still queued or already running.
struct Terminal {
    id: RequestId,
    arrival: Seconds,
    admitted_at: Seconds,
    first_token_at: Option<Seconds>,
    finished_at: Seconds,
    prompt_len: usize,
    tokens: Vec<usize>,
    priority: u32,
    retries: u32,
}

impl RequestMetrics {
    /// The metrics of a request that ended with `outcome`, carrying over
    /// what its released session reported (`None` for a request that never
    /// held one: every session-side figure is zero).
    fn terminal(t: Terminal, outcome: RequestOutcome, report: Option<&SessionReport>) -> Self {
        Self {
            id: t.id,
            arrival: t.arrival,
            admitted_at: t.admitted_at,
            first_token_at: t.first_token_at,
            finished_at: t.finished_at,
            prompt_len: t.prompt_len,
            tokens: t.tokens,
            priority: t.priority,
            cache_hit_rate: report.map_or(0.0, SessionReport::cache_hit_rate),
            bytes_recalled: report.map_or(Bytes(0), SessionReport::bytes_recalled),
            shared_prefix_tokens: report.map_or(0, |s| s.shared_prefix_tokens),
            prefetch_accuracy: report.map_or(0.0, SessionReport::prefetch_accuracy),
            hidden_transfer_fraction: report.map_or(0.0, SessionReport::hidden_transfer_fraction),
            outcome,
            retries: t.retries,
            integrity: report.map_or_else(IntegrityStats::default, |s| s.integrity),
        }
    }

    /// Time to first token: arrival → first generated token
    /// ([`Seconds::zero`] for requests cancelled before their first token —
    /// never negative, never NaN).
    pub fn ttft(&self) -> Seconds {
        match self.first_token_at {
            Some(first) => first - self.arrival,
            None => Seconds::zero(),
        }
    }

    /// Mean time between output tokens (zero for requests with fewer than
    /// two tokens, including cancelled ones that never generated).
    pub fn tbt_mean(&self) -> Seconds {
        let Some(first) = self.first_token_at else {
            return Seconds::zero();
        };
        if self.tokens.len() < 2 {
            return Seconds::zero();
        }
        (self.finished_at - first) * (1.0 / (self.tokens.len() - 1) as f64)
    }

    /// End-to-end latency: arrival → last generated token.
    pub fn e2e(&self) -> Seconds {
        self.finished_at - self.arrival
    }

    /// Export as the shared per-request row format of `clusterkv-metrics`.
    pub fn row(&self) -> RequestRow {
        RequestRow {
            id: self.id.0,
            ttft: self.ttft().get(),
            tbt: self.tbt_mean().get(),
            e2e: self.e2e().get(),
            hit_rate: self.cache_hit_rate,
            generated: self.tokens.len(),
        }
    }
}

/// What one tick did (for tests and progress displays).
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// Requests admitted this tick.
    pub admitted: Vec<RequestId>,
    /// Prompt tokens forwarded as prefill chunks.
    pub prefill_tokens: usize,
    /// Decode steps executed (1 token each).
    pub decode_tokens: usize,
    /// Modeled duration of the tick's work.
    pub elapsed: Seconds,
    /// Requests that finished this tick.
    pub completed: Vec<RequestId>,
    /// Requests that crashed this tick and were re-queued for retry.
    pub retried: Vec<RequestId>,
    /// Requests abandoned this tick (timed out or out of retries).
    pub cancelled: Vec<RequestId>,
    /// Degradation-ladder level the tick ran under: 0 = no pressure, 1 =
    /// staging shed, 2 = also demoted to the compressed tier, 3 = also shed
    /// admissions (DESIGN.md §11).
    pub pressure_level: u8,
}

impl TickOutcome {
    /// Whether the tick did any work (admission, prefill, decode, terminal
    /// state transitions, or weathering a capacity-pressure event — a tick
    /// that sheds admissions is progress through the fault schedule, not a
    /// stall).
    pub fn did_work(&self) -> bool {
        !self.admitted.is_empty()
            || self.prefill_tokens > 0
            || self.decode_tokens > 0
            || !self.retried.is_empty()
            || !self.cancelled.is_empty()
            || self.pressure_level > 0
    }
}

/// Aggregate outcome of serving a whole trace.
///
/// Latency and throughput emitters are *goodput* measures: they cover only
/// requests whose [`RequestOutcome::is_completed`] holds, so a report mixing
/// completed and cancelled requests never panics and never skews its TTFT /
/// TBT means with the zero timestamps of requests that generated nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Per-request metrics (every terminal state), ordered by request id.
    pub requests: Vec<RequestMetrics>,
    /// Modeled time from clock zero to the last terminal event.
    pub makespan: Seconds,
    /// Tokens generated by *completed* requests (goodput numerator; the
    /// partial streams of cancelled requests are not counted).
    pub total_generated: usize,
}

impl ServingReport {
    /// The completed requests (ordered by id, like `requests`).
    pub fn completed(&self) -> impl Iterator<Item = &RequestMetrics> {
        self.requests.iter().filter(|r| r.outcome.is_completed())
    }

    /// Goodput over the makespan: completed-request tokens per modeled
    /// second (0.0 for an empty or all-cancelled report — never NaN).
    pub fn throughput(&self) -> f64 {
        if self.makespan.get() > 0.0 {
            self.total_generated as f64 / self.makespan.get()
        } else {
            0.0
        }
    }

    /// Every *completed* request's TTFT in seconds, ordered by request id.
    pub fn ttfts(&self) -> Vec<f64> {
        self.completed().map(|r| r.ttft().get()).collect()
    }

    /// Every *completed* request's end-to-end latency in seconds, ordered
    /// by request id.
    pub fn e2es(&self) -> Vec<f64> {
        self.completed().map(|r| r.e2e().get()).collect()
    }

    /// Mean TTFT of completed requests in seconds (0 for a report with no
    /// completions — never NaN).
    pub fn mean_ttft(&self) -> f64 {
        clusterkv_metrics::mean(&self.ttfts())
    }

    /// Mean crash retries per request, over every terminal request (0.0 on
    /// an empty report — never NaN).
    pub fn retry_rate(&self) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            self.requests.iter().map(|r| r.retries as f64).sum::<f64>() / self.requests.len() as f64
        }
    }

    /// Fraction of requests that did *not* complete (timed out or
    /// cancelled), in `[0, 1]` (0.0 on an empty report — never NaN).
    pub fn cancelled_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            self.requests
                .iter()
                .filter(|r| !r.outcome.is_completed())
                .count() as f64
                / self.requests.len() as f64
        }
    }

    /// Fraction of requests that delivered their full stream, in `[0, 1]`
    /// (0.0 on an empty report — never NaN).
    pub fn completed_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            0.0
        } else {
            1.0 - self.cancelled_fraction()
        }
    }

    /// Fault-injection / KV-integrity accounting merged over every request
    /// (DESIGN.md §11). The exp_faults gate checks
    /// [`IntegrityStats::silent_corruptions`] is 0 here.
    pub fn integrity(&self) -> IntegrityStats {
        let mut total = IntegrityStats::default();
        for r in &self.requests {
            total.merge(&r.integrity);
        }
        total
    }

    /// Export every *completed* request as a `clusterkv-metrics` row,
    /// ordered by id (cancelled requests carry no meaningful latencies).
    pub fn request_rows(&self) -> Vec<RequestRow> {
        self.completed().map(RequestMetrics::row).collect()
    }
}

/// The continuous-batching scheduler (see the crate docs for the model).
pub struct Scheduler {
    engine: ServeEngine,
    config: SchedConfig,
    clock: Seconds,
    ticks: u64,
    next_id: u64,
    waiting: Vec<Waiting>,
    running: Vec<Running>,
    completed: Vec<RequestMetrics>,
    /// Modeled cost of streaming the weights once (one fused decode batch
    /// pays it once, not once per session) — see [`Scheduler::tick`].
    weight_stream: Seconds,
    /// Deterministic fault injector driving crash faults and pressure
    /// events (a disabled plan makes every recovery seam a no-op).
    injector: FaultInjector,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("config", &self.config)
            .field("clock", &self.clock)
            .field("waiting", &self.waiting.len())
            .field("running", &self.running.len())
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Wrap an engine. The engine must have a default selection policy
    /// (sessions are created at admission) and session capacity for
    /// `config.max_sessions`.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidConfig`] for zero chunk/budget/session sizes, a
    /// session cap above the engine's, an engine without a default policy,
    /// or a non-positive aging rate.
    pub fn new(engine: ServeEngine, config: SchedConfig) -> Result<Self, SchedError> {
        if config.max_sessions == 0 {
            return Err(SchedError::InvalidConfig("max_sessions must be > 0".into()));
        }
        if config.max_sessions > engine.max_sessions() {
            return Err(SchedError::InvalidConfig(format!(
                "max_sessions ({}) exceeds the engine's session cap ({})",
                config.max_sessions,
                engine.max_sessions()
            )));
        }
        if config.chunk_tokens == 0 {
            return Err(SchedError::InvalidConfig("chunk_tokens must be > 0".into()));
        }
        if config.tick_token_budget == 0 {
            return Err(SchedError::InvalidConfig(
                "tick_token_budget must be > 0".into(),
            ));
        }
        if let SchedPolicy::PriorityAging { aging_per_second } = config.policy {
            // NaN fails this comparison too, which is exactly what we want.
            if aging_per_second <= 0.0 || aging_per_second.is_nan() {
                return Err(SchedError::InvalidConfig(
                    "aging_per_second must be positive (zero reintroduces starvation)".into(),
                ));
            }
        }
        if !engine.has_default_policy() {
            return Err(SchedError::InvalidConfig(
                "engine needs a default selection policy (ServeEngineBuilder::policy)".into(),
            ));
        }
        config
            .faults
            .validate()
            .map_err(SchedError::InvalidConfig)?;
        let weight_stream = engine.latency_model().decode_step(0, &StepCost::default());
        Ok(Self {
            engine,
            config,
            clock: Seconds::zero(),
            ticks: 0,
            next_id: 0,
            waiting: Vec::new(),
            running: Vec::new(),
            completed: Vec::new(),
            weight_stream,
            injector: FaultInjector::new(config.faults),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// The modeled clock (monotone; starts at zero).
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// Requests admitted and not yet completed.
    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// Worst-case KV bytes reserved by the running requests (the quantity
    /// the `kv_capacity` admission bound caps).
    pub fn kv_reserved(&self) -> Bytes {
        self.running.iter().map(|r| r.kv_bytes).sum()
    }

    /// Whether every submitted request has completed.
    pub fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.running.is_empty()
    }

    /// Borrow the underlying engine (for inspection).
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Submit a request (admission control, step 1): requests that can
    /// *never* be served — empty prompt, zero generation length, prompt +
    /// generation beyond the context window, or a worst-case KV footprint
    /// above `kv_capacity` — are rejected here, so the queue only ever holds
    /// requests admission can eventually place.
    ///
    /// # Errors
    ///
    /// [`SchedError::Unservable`] with the rejection reason.
    pub fn submit(&mut self, request: Request) -> Result<RequestId, SchedError> {
        let cfg = self.engine.config();
        if request.prompt.is_empty() {
            return Err(SchedError::Unservable {
                reason: "empty prompt".into(),
            });
        }
        if request.max_new_tokens == 0 {
            return Err(SchedError::Unservable {
                reason: "max_new_tokens must be at least 1".into(),
            });
        }
        let total = request.prompt.len() + request.max_new_tokens;
        if total > cfg.max_context {
            return Err(SchedError::Unservable {
                reason: format!(
                    "prompt + generation of {total} tokens exceeds the context window ({})",
                    cfg.max_context
                ),
            });
        }
        if let Some(&token) = request.prompt.iter().find(|&&t| t >= cfg.vocab_size) {
            return Err(SchedError::Unservable {
                reason: format!(
                    "token {token} outside vocabulary of size {}",
                    cfg.vocab_size
                ),
            });
        }
        let kv_bytes = Bytes(total as u64 * cfg.kv_bytes_per_token());
        if let Some(capacity) = self.config.kv_capacity {
            if kv_bytes > capacity {
                return Err(SchedError::Unservable {
                    reason: format!(
                        "worst-case KV of {kv_bytes} exceeds the admission capacity ({capacity})"
                    ),
                });
            }
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.waiting.push(Waiting {
            id,
            prompt: request.prompt,
            max_new: request.max_new_tokens,
            priority: request.priority,
            arrival: request.arrival_time,
            kv_bytes,
            deadline: request.deadline,
            retries: 0,
            admitted_at: None,
        });
        Ok(id)
    }

    /// Submit a whole trace, returning the ids in order.
    ///
    /// # Errors
    ///
    /// Fails on the first unservable request (earlier ones stay queued).
    pub fn submit_all(
        &mut self,
        requests: impl IntoIterator<Item = Request>,
    ) -> Result<Vec<RequestId>, SchedError> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Effective queue priority of a waiting request at the current clock.
    fn effective_priority(&self, w: &Waiting) -> f64 {
        match self.config.policy {
            SchedPolicy::PriorityAging { aging_per_second } => {
                w.priority as f64 + aging_per_second * (self.clock - w.arrival).get().max(0.0)
            }
            // FCFS / run-to-completion order purely by arrival.
            SchedPolicy::Fcfs | SchedPolicy::RunToCompletion => 0.0,
        }
    }

    /// Admission control, step 2: move arrived requests from the queue into
    /// the engine, in policy order, while the session and KV bounds allow.
    /// Admission is head-of-line blocking: once the front candidate does not
    /// fit, nothing behind it is considered — later (smaller) requests
    /// cannot overtake indefinitely, which is what makes every request
    /// eventually admissible.
    ///
    /// With a prefix store, the worst-case reservation is shrunk by the
    /// prompt prefix the store can already serve: those bytes are charged to
    /// the store, not the session, so counting them again would double-bill
    /// and leave capacity idle. The discounted coverage is *pinned* at
    /// admission ([`ServeEngine::pin_session_prefix`]) — pinned pages cannot
    /// be evicted, so the discount can never exceed what prefill later
    /// reuses and the bound stays sound.
    /// Under a pressure event (`pressure < 1.0`) the admission bound is
    /// tightened to `pressure · kv_capacity`: running reservations are
    /// never revoked (pinned and resident pages are never dropped), but no
    /// new request is admitted past the shrunken bound until the event
    /// clears.
    fn admit(&mut self, pressure: f64) -> Result<Vec<RequestId>, SchedError> {
        let mut admitted = Vec::new();
        let bytes_per_token = self.engine.config().kv_bytes_per_token();
        loop {
            if self.running.len() >= self.config.max_sessions {
                break;
            }
            if self.config.policy == SchedPolicy::RunToCompletion && !self.running.is_empty() {
                break;
            }
            // Front of the queue among the *arrived* requests: highest
            // effective priority, ties by (arrival, id). FCFS degenerates to
            // (arrival, id) because effective priority is constant.
            let Some(front) = self
                .waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| w.arrival <= self.clock)
                .max_by(|(_, a), (_, b)| {
                    self.effective_priority(a)
                        .total_cmp(&self.effective_priority(b))
                        .then_with(|| b.arrival.get().total_cmp(&a.arrival.get()))
                        .then_with(|| b.id.cmp(&a.id))
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let shareable = Bytes(
                self.engine.prefix_match_len(&self.waiting[front].prompt) as u64 * bytes_per_token,
            );
            let effective = Bytes(
                self.waiting[front]
                    .kv_bytes
                    .get()
                    .saturating_sub(shareable.get()),
            );
            let fits = match self.config.kv_capacity {
                Some(capacity) => {
                    // floor() of a finite non-negative product: deterministic
                    // at any thread count, and pressure == 1.0 reproduces the
                    // unscaled bound exactly.
                    let scaled = Bytes((capacity.get() as f64 * pressure).floor() as u64);
                    self.kv_reserved() + effective <= scaled
                }
                None => true,
            };
            if !fits {
                break;
            }
            let w = self.waiting.remove(front);
            let session = self.engine.create_session()?;
            // Pin what the discount assumed; the pin can only find at least
            // as much coverage as the peek above (coverage never shrinks),
            // so the recorded reservation never exceeds `effective`.
            let pinned = self.engine.pin_session_prefix(session, &w.prompt)?;
            let kv_bytes = Bytes(
                w.kv_bytes
                    .get()
                    .saturating_sub(pinned as u64 * bytes_per_token),
            );
            admitted.push(w.id);
            self.running.push(Running {
                id: w.id,
                session,
                prompt: w.prompt,
                max_new: w.max_new,
                priority: w.priority,
                arrival: w.arrival,
                // A crash-retry re-admission keeps its original admission
                // time: the queueing decision was made once.
                admitted_at: w.admitted_at.unwrap_or(self.clock),
                kv_bytes,
                fed: 0,
                tokens: Vec::new(),
                first_token_at: None,
                last_token_at: Seconds::zero(),
                last_decode_tick: 0,
                deadline: w.deadline,
                retries: w.retries,
            });
        }
        Ok(admitted)
    }

    /// Run one scheduler tick: admit arrived requests, assemble a mixed
    /// batch of decode steps and prefill chunks under the token budget,
    /// execute it against the engine, and advance the modeled clock by the
    /// batch's roofline cost. Decode steps are priced per session by
    /// diffing the engine's modeled decode time; a fused batch streams the
    /// model weights once, so `(k-1)` weight passes are credited back for a
    /// `k`-session decode batch — the throughput half of what continuous
    /// batching buys (the latency half comes from interleaving prefill
    /// chunks instead of blocking on whole prompts).
    ///
    /// If no request has arrived yet and nothing is running, the clock jumps
    /// to the next arrival instead (open-loop traffic).
    ///
    /// # Errors
    ///
    /// Propagates engine errors; [`SchedError::Stalled`] if work remained
    /// but the tick could not progress (a bug guard).
    pub fn tick(&mut self) -> Result<TickOutcome, SchedError> {
        self.ticks += 1;
        let tick = self.ticks;
        let mut outcome = TickOutcome {
            admitted: Vec::new(),
            prefill_tokens: 0,
            decode_tokens: 0,
            elapsed: Seconds::zero(),
            completed: Vec::new(),
            retried: Vec::new(),
            cancelled: Vec::new(),
            pressure_level: 0,
        };
        if self.is_idle() {
            return Ok(outcome);
        }
        // Open-loop gap: nothing runnable until the next arrival.
        if self.running.is_empty() {
            let next = self
                .waiting
                .iter()
                .map(|w| w.arrival.get())
                .fold(f64::INFINITY, f64::min);
            if next > self.clock.get() {
                self.clock = Seconds(next);
            }
        }

        // Degradation ladder (DESIGN.md §11): a pressure event shrinks the
        // effective capacity to `f · kv_capacity` and sheds reclaimable
        // state in order of how cheap it is to give up — staged prefetch
        // bytes first (pure accounting, re-stageable), then demotion of
        // resident pages to the compressed tier (recoverable quality /
        // bandwidth trade), and only at the deepest level new admissions.
        // Running requests are never evicted: pinned and resident pages
        // survive every level, so streams are unaffected.
        let pressure = self.injector.pressure_factor(tick);
        if pressure < 1.0 {
            outcome.pressure_level = 1;
            for i in 0..self.running.len() {
                let session = self.running[i].session;
                self.engine.shed_staging(session)?;
            }
            if pressure <= 0.75 {
                outcome.pressure_level = 2;
                for i in 0..self.running.len() {
                    let session = self.running[i].session;
                    self.engine.demote_session(session)?;
                }
            }
            if pressure <= 0.5 {
                outcome.pressure_level = 3;
            }
        }
        if outcome.pressure_level < 3 {
            outcome.admitted = self.admit(pressure)?;
        }

        // Assemble the tick's mixed batch under the token budget: decode
        // first (one token per decodable session, least recently served
        // first so an oversubscribed budget round-robins), prefill chunks
        // with the remainder (admission order).
        let mut budget = self.config.tick_token_budget;
        let mut decode_order: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].fed == self.running[i].prompt.len())
            .collect();
        decode_order.sort_by_key(|&i| (self.running[i].last_decode_tick, self.running[i].id));
        decode_order.truncate(budget);
        budget -= decode_order.len();
        let mut prefill_jobs: Vec<(usize, usize)> = Vec::new(); // (running idx, take)
        for i in 0..self.running.len() {
            if budget == 0 {
                break;
            }
            let remaining = self.running[i].prompt.len() - self.running[i].fed;
            if remaining == 0 {
                continue;
            }
            let take = remaining.min(self.config.chunk_tokens).min(budget);
            budget -= take;
            prefill_jobs.push((i, take));
        }

        // Execute prefill chunks. A chunk covering prompt positions [a, b)
        // of one session costs prefill(b) − prefill(a) (prefill(0) ≡ 0), so
        // any chunking of a prompt telescopes to exactly the monolithic
        // prefill cost — run-to-completion and continuous batching pay
        // identical totals and differ only in interleaving. Positions the
        // prefix store fast-pathed were never forwarded, so they are priced
        // out of the chunk: only the `computed` deepest positions of [a, b)
        // are charged, which for a fully cold session reduces to the plain
        // telescoping rule.
        let mut elapsed = Seconds::zero();
        for &(i, take) in &prefill_jobs {
            let r = &mut self.running[i];
            let (from, to) = (r.fed, r.fed + take);
            let session = r.session;
            let (_, fast_before) = self.engine.session_prefix_tokens(session)?;
            self.engine.prefill_chunk(session, &r.prompt[from..to])?;
            let (_, fast_after) = self.engine.session_prefix_tokens(session)?;
            let computed = take - (fast_after - fast_before);
            r.fed = to;
            if r.fed == r.prompt.len() {
                self.engine.finish_prefill(session)?;
            }
            let lm = self.engine.latency_model();
            let prefill = |tokens: usize| match tokens {
                0 => Seconds::zero(),
                n => lm.prefill(n),
            };
            elapsed += prefill(to) - prefill(to - computed);
            outcome.prefill_tokens += take;
        }

        // Execute the decode steps as one fused batch.
        if !decode_order.is_empty() {
            let ids: Vec<SessionId> = decode_order
                .iter()
                .map(|&i| self.running[i].session)
                .collect();
            let before: Vec<Seconds> = ids
                .iter()
                .map(|&s| self.engine.modeled_decode_time(s))
                .collect::<Result<_, _>>()?;
            let outs = self.engine.decode_batch(&ids)?;
            let mut batch_time = Seconds::zero();
            let mut slowest = Seconds::zero();
            for (&s, &b) in ids.iter().zip(&before) {
                let step = self.engine.modeled_decode_time(s)? - b;
                batch_time += step;
                if step > slowest {
                    slowest = step;
                }
            }
            // Fused weight streaming: one pass for the whole batch instead
            // of one per session (never cheaper than the slowest member).
            batch_time = batch_time - self.weight_stream * (ids.len() - 1) as f64;
            if batch_time < slowest {
                batch_time = slowest;
            }
            elapsed += batch_time;
            outcome.decode_tokens = outs.len();
            self.clock += elapsed;
            for (&i, out) in decode_order.iter().zip(&outs) {
                let r = &mut self.running[i];
                r.tokens.push(out.next_token);
                r.last_decode_tick = tick;
                if r.first_token_at.is_none() {
                    r.first_token_at = Some(self.clock);
                }
                r.last_token_at = self.clock;
            }
        } else {
            self.clock += elapsed;
        }
        outcome.elapsed = elapsed;

        // Whole-session crash faults (DESIGN.md §11): every decode step of a
        // request draws from the crash stream, keyed by (request id, retry
        // round, step ordinal) — deterministic at any thread count, and a
        // retry draws a fresh schedule instead of replaying its crash
        // forever. A victim is checkpoint-released (with a prefix store its
        // prompt KV was donated at finish_prefill, so the retry re-adopts
        // those pages instead of recomputing them) and re-queued with its
        // original arrival and admission times; the engine is deterministic,
        // so the regenerated stream is byte-identical to an uninterrupted
        // run. A victim out of retries is cancelled instead.
        if self.injector.enabled() {
            let mut crashed: Vec<usize> = decode_order
                .iter()
                .copied()
                .filter(|&i| {
                    let r = &self.running[i];
                    let key = r.id.0 ^ (u64::from(r.retries) << 48);
                    self.injector.should_crash(key, r.tokens.len() as u64)
                })
                .collect();
            // Descending order keeps the remaining indices valid as
            // victims are removed.
            crashed.sort_unstable_by(|a, b| b.cmp(a));
            for i in crashed {
                let r = self.running.remove(i);
                let report = self.engine.release(r.session)?;
                if r.retries >= self.config.max_retries {
                    outcome.cancelled.push(r.id);
                    let reason = format!(
                        "crash retry budget exhausted ({} runs)",
                        u64::from(r.retries) + 1
                    );
                    self.record_terminal(r, RequestOutcome::Cancelled { reason }, &report);
                } else {
                    outcome.retried.push(r.id);
                    self.requeue(r);
                }
            }
        }

        // Completions: release finished sessions and record their metrics.
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].tokens.len() >= self.running[i].max_new {
                let r = self.running.remove(i);
                let report = self.engine.release(r.session)?;
                outcome.completed.push(r.id);
                let terminal = if r.retries > 0 {
                    RequestOutcome::Retried { n: r.retries }
                } else {
                    RequestOutcome::Completed
                };
                // A completed stream ends with its last token, not with the
                // tick that noticed.
                let finished_at = r.last_token_at;
                self.completed.push(RequestMetrics::terminal(
                    r.into_terminal(finished_at),
                    terminal,
                    Some(&report),
                ));
            } else {
                i += 1;
            }
        }

        // Timeout cancellation: requests past their deadline at the end of
        // the tick are abandoned — running ones release their session and
        // keep the partial stream in the metrics; queued ones are dropped
        // before wasting any prefill work. Completions above run first, so
        // a stream that finishes in the very tick its deadline expires is
        // still delivered.
        let now = self.clock;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].deadline.is_some_and(|d| now > d) {
                let r = self.running.remove(i);
                let report = self.engine.release(r.session)?;
                outcome.cancelled.push(r.id);
                self.record_terminal(r, RequestOutcome::TimedOut, &report);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.waiting.len() {
            if self.waiting[i].deadline.is_some_and(|d| now > d) {
                let w = self.waiting.remove(i);
                outcome.cancelled.push(w.id);
                let queued = Terminal {
                    id: w.id,
                    arrival: w.arrival,
                    admitted_at: w.admitted_at.unwrap_or(now),
                    first_token_at: None,
                    finished_at: now,
                    prompt_len: w.prompt.len(),
                    tokens: Vec::new(),
                    priority: w.priority,
                    retries: w.retries,
                };
                self.completed.push(RequestMetrics::terminal(
                    queued,
                    RequestOutcome::TimedOut,
                    None,
                ));
            } else {
                i += 1;
            }
        }

        if !outcome.did_work() && !self.is_idle() {
            return Err(SchedError::Stalled);
        }
        Ok(outcome)
    }

    /// Record the terminal metrics of a request that did not run to
    /// completion (crash-cancelled or timed out), carrying over whatever
    /// the released session reported.
    // analyzer: recovery-path
    fn record_terminal(&mut self, r: Running, outcome: RequestOutcome, report: &SessionReport) {
        let abandoned = r.into_terminal(self.clock);
        self.completed
            .push(RequestMetrics::terminal(abandoned, outcome, Some(report)));
    }

    /// Re-queue a crash victim for bounded retry, preserving its identity,
    /// arrival time and first admission time; the retry counter is bumped
    /// so the crash stream draws a fresh schedule next round.
    // analyzer: recovery-path
    fn requeue(&mut self, r: Running) {
        let bytes_per_token = self.engine.config().kv_bytes_per_token();
        let kv_bytes = Bytes((r.prompt.len() + r.max_new) as u64 * bytes_per_token);
        self.waiting.push(Waiting {
            id: r.id,
            prompt: r.prompt,
            max_new: r.max_new,
            priority: r.priority,
            arrival: r.arrival,
            kv_bytes,
            deadline: r.deadline,
            retries: r.retries + 1,
            admitted_at: Some(r.admitted_at),
        });
    }

    /// Tick until every submitted request has completed, then report.
    ///
    /// # Errors
    ///
    /// Propagates the first [`tick`](Self::tick) error.
    pub fn run(&mut self) -> Result<ServingReport, SchedError> {
        while !self.is_idle() {
            self.tick()?;
        }
        Ok(self.report())
    }

    /// Report over every terminal request so far (ordered by id).
    pub fn report(&self) -> ServingReport {
        let mut requests = self.completed.clone();
        requests.sort_by_key(|r| r.id);
        let makespan = Seconds(
            requests
                .iter()
                .map(|r| r.finished_at.get())
                .fold(0.0, f64::max),
        );
        // Goodput numerator: the partial streams of cancelled requests do
        // not count as delivered tokens.
        let total_generated = requests
            .iter()
            .filter(|r| r.outcome.is_completed())
            .map(|r| r.tokens.len())
            .sum();
        ServingReport {
            requests,
            makespan,
            total_generated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_model::policy::OracleTopKFactory;
    use clusterkv_model::ModelConfig;
    use proptest::prelude::*;

    fn engine() -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(13)
            .budget(Budget::new(16))
            .policy(Box::new(OracleTopKFactory))
            .build()
            .unwrap()
    }

    fn request(len: usize, new: usize, priority: u32, at: f64) -> Request {
        Request {
            prompt: (0..len).map(|i| (i * 7 + len) % 128).collect(),
            max_new_tokens: new,
            priority,
            arrival_time: Seconds(at),
            deadline: None,
        }
    }

    /// Test-only paged policy (mirrors the serving engine's own test
    /// double): exact top-k reported as four-token-aligned pages, so the
    /// cluster cache — and with it the speculative prefetcher — sees real
    /// page traffic without depending on the core crate.
    struct PagedTopKSelector {
        inner: clusterkv_model::policy::OracleTopKSelector,
    }

    impl clusterkv_model::TokenSelector for PagedTopKSelector {
        fn name(&self) -> &str {
            "PagedTopK"
        }
        fn observe(&mut self, event: clusterkv_model::ObserveEvent<'_>) {
            self.inner.observe(event);
        }
        fn plan(
            &mut self,
            request: clusterkv_model::SelectionRequest<'_>,
        ) -> clusterkv_model::SelectionPlan {
            let plan = self.inner.plan(request);
            if request.budget.covers(request.num_tokens) {
                return plan;
            }
            let pages: Vec<clusterkv_model::PageRequest> = plan
                .indices
                .iter()
                .map(|&t| clusterkv_model::PageRequest::new(t / 4, 4))
                .collect();
            let stats = plan.stats;
            clusterkv_model::SelectionPlan::new(plan.indices)
                .with_stats(stats)
                .with_pages(pages)
        }
    }

    struct PagedTopKFactory;

    impl clusterkv_model::SelectorFactory for PagedTopKFactory {
        fn name(&self) -> &str {
            "PagedTopK"
        }
        fn create(
            &self,
            ctx: clusterkv_model::policy::HeadContext,
        ) -> Box<dyn clusterkv_model::TokenSelector> {
            Box::new(PagedTopKSelector {
                inner: clusterkv_model::policy::OracleTopKSelector::new(ctx.head_dim),
            })
        }
    }

    fn paged_engine(prefetch: clusterkv_model::PrefetchConfig) -> ServeEngine {
        ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(13)
            .budget(Budget::new(8))
            .policy(Box::new(PagedTopKFactory))
            .kv_cache_capacity(Bytes(512))
            .prefetch(prefetch)
            .build()
            .unwrap()
    }

    #[test]
    fn prefetch_fills_request_metrics_without_changing_tokens() {
        use clusterkv_model::PrefetchConfig;
        let run = |prefetch: PrefetchConfig| {
            let mut sched = Scheduler::new(paged_engine(prefetch), SchedConfig::fcfs(4)).unwrap();
            for i in 0..3 {
                sched
                    .submit(request(16 + i, 6, 0, i as f64 * 1e-6))
                    .unwrap();
            }
            sched.run().unwrap()
        };
        let off = run(PrefetchConfig::disabled());
        let on = run(PrefetchConfig::lookahead(Bytes(1 << 20)));
        for (a, b) in off.requests.iter().zip(&on.requests) {
            assert_eq!(a.tokens, b.tokens, "prefetch must not change tokens");
        }
        // The prefetching run staged and promoted; its metrics carry the
        // ratios, both inside [0, 1] and never NaN.
        assert!(on.requests.iter().any(|r| r.prefetch_accuracy > 0.0));
        for r in &on.requests {
            assert!((0.0..=1.0).contains(&r.prefetch_accuracy));
            assert!((0.0..=1.0).contains(&r.hidden_transfer_fraction));
        }
        // Prefetch-off engines report hard zeros (PR 8 zero-guard
        // convention).
        for r in &off.requests {
            assert_eq!(r.prefetch_accuracy, 0.0);
            assert_eq!(r.hidden_transfer_fraction, 0.0);
            assert!(!r.prefetch_accuracy.is_nan());
        }
        // Determinism: the same run repeats bit-identically.
        assert_eq!(on, run(PrefetchConfig::lookahead(Bytes(1 << 20))));
    }

    #[test]
    fn config_validation() {
        let bad = |cfg: SchedConfig| Scheduler::new(engine(), cfg).unwrap_err();
        assert!(matches!(
            bad(SchedConfig::fcfs(0)),
            SchedError::InvalidConfig(_)
        ));
        assert!(matches!(
            bad(SchedConfig::fcfs(4).with_chunk_tokens(0)),
            SchedError::InvalidConfig(_)
        ));
        assert!(matches!(
            bad(SchedConfig::fcfs(4).with_tick_token_budget(0)),
            SchedError::InvalidConfig(_)
        ));
        assert!(matches!(
            bad(SchedConfig::fcfs(100_000)),
            SchedError::InvalidConfig(_)
        ));
        assert!(matches!(
            bad(
                SchedConfig::fcfs(4).with_policy(SchedPolicy::PriorityAging {
                    aging_per_second: 0.0
                })
            ),
            SchedError::InvalidConfig(_)
        ));
        // An engine without a default policy cannot admit.
        let no_policy = ServeEngine::builder(ModelConfig::tiny()).build().unwrap();
        assert!(matches!(
            Scheduler::new(no_policy, SchedConfig::fcfs(4)).unwrap_err(),
            SchedError::InvalidConfig(_)
        ));
    }

    #[test]
    fn submit_rejects_unservable_requests() {
        let mut sched = Scheduler::new(engine(), SchedConfig::fcfs(4)).unwrap();
        assert!(matches!(
            sched.submit(request(0, 4, 0, 0.0)).unwrap_err(),
            SchedError::Unservable { .. }
        ));
        assert!(matches!(
            sched.submit(request(8, 0, 0, 0.0)).unwrap_err(),
            SchedError::Unservable { .. }
        ));
        // tiny() has max_context 512.
        assert!(matches!(
            sched.submit(request(510, 8, 0, 0.0)).unwrap_err(),
            SchedError::Unservable { .. }
        ));
        let mut oversized = request(8, 4, 0, 0.0);
        oversized.prompt[3] = 9999; // out of vocabulary
        assert!(matches!(
            sched.submit(oversized).unwrap_err(),
            SchedError::Unservable { .. }
        ));
        // A request whose worst-case KV can never fit the admission bound.
        let kv_per_token = ModelConfig::tiny().kv_bytes_per_token();
        let mut tight = Scheduler::new(
            engine(),
            SchedConfig::fcfs(4).with_kv_capacity(Bytes(4 * kv_per_token)),
        )
        .unwrap();
        assert!(matches!(
            tight.submit(request(8, 4, 0, 0.0)).unwrap_err(),
            SchedError::Unservable { .. }
        ));
        assert!(tight.submit(request(2, 2, 0, 0.0)).is_ok());
    }

    #[test]
    fn fcfs_single_slot_serves_in_arrival_order() {
        let mut sched = Scheduler::new(engine(), SchedConfig::fcfs(1)).unwrap();
        // Submitted out of arrival order on purpose.
        sched.submit(request(8, 2, 0, 0.002)).unwrap(); // r0 arrives second
        sched.submit(request(8, 2, 0, 0.001)).unwrap(); // r1 arrives first
        sched.submit(request(8, 2, 0, 0.003)).unwrap(); // r2 arrives last
        let report = sched.run().unwrap();
        let mut by_finish: Vec<(f64, u64)> = report
            .requests
            .iter()
            .map(|r| (r.finished_at.get(), r.id.0))
            .collect();
        by_finish.sort_by(|a, b| a.0.total_cmp(&b.0));
        let order: Vec<u64> = by_finish.iter().map(|&(_, id)| id).collect();
        assert_eq!(order, vec![1, 0, 2], "completion must follow arrival");
    }

    #[test]
    fn aging_lifts_a_low_priority_request_over_later_urgent_ones() {
        let cfg = SchedConfig::fcfs(1).with_policy(SchedPolicy::PriorityAging {
            // Strong aging: any wait outweighs the priority gap.
            aging_per_second: 1e9,
        });
        let mut sched = Scheduler::new(engine(), cfg).unwrap();
        sched.submit(request(8, 2, 5, 0.0)).unwrap(); // r0: urgent, first
        sched.submit(request(8, 2, 0, 0.0)).unwrap(); // r1: background
        sched.submit(request(8, 2, 5, 0.000_1)).unwrap(); // r2: urgent, later
        let report = sched.run().unwrap();
        let finished = |id: u64| {
            report
                .requests
                .iter()
                .find(|r| r.id.0 == id)
                .unwrap()
                .finished_at
        };
        // r0 wins the empty queue; while it runs, r1 accrues age and must be
        // admitted before the later urgent r2.
        assert!(finished(1) < finished(2), "aged request served first");
    }

    #[test]
    fn without_aging_priority_is_ignored_by_fcfs() {
        let mut sched = Scheduler::new(engine(), SchedConfig::fcfs(1)).unwrap();
        sched.submit(request(8, 2, 0, 0.0)).unwrap();
        sched.submit(request(8, 2, 9, 0.000_1)).unwrap();
        let report = sched.run().unwrap();
        assert!(
            report.requests[0].finished_at < report.requests[1].finished_at,
            "FCFS serves by arrival regardless of priority"
        );
    }

    #[test]
    fn run_to_completion_is_exclusive() {
        let cfg = SchedConfig::fcfs(4).with_policy(SchedPolicy::RunToCompletion);
        let mut sched = Scheduler::new(engine(), cfg).unwrap();
        for i in 0..3 {
            sched.submit(request(10, 3, 0, 0.0001 * i as f64)).unwrap();
        }
        while !sched.is_idle() {
            sched.tick().unwrap();
            assert!(sched.num_running() <= 1, "RTC admits one request at a time");
        }
        assert_eq!(sched.report().requests.len(), 3);
    }

    #[test]
    fn tick_respects_the_token_budget_and_bounds() {
        let kv_per_token = ModelConfig::tiny().kv_bytes_per_token();
        let capacity = Bytes(40 * kv_per_token);
        let cfg = SchedConfig::fcfs(2)
            .with_chunk_tokens(3)
            .with_tick_token_budget(5)
            .with_kv_capacity(capacity);
        let mut sched = Scheduler::new(engine(), cfg).unwrap();
        for i in 0..5 {
            sched.submit(request(9 + i, 4, 0, 0.0)).unwrap();
        }
        let mut prefill_total = 0;
        while !sched.is_idle() {
            let out = sched.tick().unwrap();
            assert!(
                out.prefill_tokens + out.decode_tokens <= 5,
                "tick exceeded its token budget: {out:?}"
            );
            assert!(sched.num_running() <= 2, "max_sessions bound violated");
            assert!(sched.kv_reserved() <= capacity, "KV bound violated");
            prefill_total += out.prefill_tokens;
        }
        let report = sched.report();
        assert_eq!(report.requests.len(), 5);
        assert_eq!(
            prefill_total,
            (0..5).map(|i| 9 + i).sum::<usize>(),
            "every prompt token was prefilled exactly once"
        );
        for r in &report.requests {
            assert_eq!(r.tokens.len(), 4);
            assert!(r.ttft() > Seconds::zero());
            assert!(r.e2e() >= r.ttft());
            assert!(r.tbt_mean() > Seconds::zero());
        }
    }

    #[test]
    fn scheduling_policy_never_changes_token_streams() {
        let streams = |policy: SchedPolicy| {
            let cfg = SchedConfig::fcfs(3)
                .with_policy(policy)
                .with_chunk_tokens(4)
                .with_tick_token_budget(6);
            let mut sched = Scheduler::new(engine(), cfg).unwrap();
            for i in 0..4 {
                sched
                    .submit(request(8 + 3 * i, 5, (i % 2) as u32, 0.0005 * i as f64))
                    .unwrap();
            }
            let report = sched.run().unwrap();
            report
                .requests
                .iter()
                .map(|r| r.tokens.clone())
                .collect::<Vec<_>>()
        };
        let fcfs = streams(SchedPolicy::Fcfs);
        assert_eq!(
            fcfs,
            streams(SchedPolicy::RunToCompletion),
            "RTC must generate identical tokens"
        );
        assert_eq!(
            fcfs,
            streams(SchedPolicy::PriorityAging {
                aging_per_second: 10.0
            }),
            "aging must generate identical tokens"
        );
    }

    #[test]
    fn scheduler_is_deterministic() {
        let run = || {
            let mut sched = Scheduler::new(
                engine(),
                SchedConfig::fcfs(3)
                    .with_chunk_tokens(5)
                    .with_tick_token_budget(7),
            )
            .unwrap();
            for i in 0..5 {
                sched
                    .submit(request(7 + i, 4, 0, 0.0002 * i as f64))
                    .unwrap();
            }
            sched.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same trace must produce bit-identical reports");
        assert!(a.makespan > Seconds::zero());
        assert!(a.throughput() > 0.0);
        assert_eq!(a.total_generated, 20);
        assert_eq!(a.request_rows().len(), 5);
    }

    #[test]
    fn prefix_sharing_shrinks_reservations_and_speeds_ttft() {
        let cfg = ModelConfig::tiny();
        let prompt: Vec<usize> = (0..32).map(|i| (i * 5 + 2) % 128).collect();
        let new = 4;
        // Capacity for exactly one cold request's worst case: without the
        // prefix discount, requests can only ever run one at a time.
        let capacity = Bytes((prompt.len() + new) as u64 * cfg.kv_bytes_per_token());
        let store_engine = || {
            ServeEngine::builder(ModelConfig::tiny())
                .synthetic_weights(13)
                .budget(Budget::new(16))
                .policy(Box::new(OracleTopKFactory))
                .prefix_store(Bytes(1 << 20))
                .build()
                .unwrap()
        };
        let mut sched = Scheduler::new(
            store_engine(),
            SchedConfig::fcfs(4).with_kv_capacity(capacity),
        )
        .unwrap();
        let shared = |at: f64| Request {
            prompt: prompt.clone(),
            max_new_tokens: new,
            priority: 0,
            arrival_time: Seconds(at),
            deadline: None,
        };
        sched.submit(shared(0.0)).unwrap();
        while !sched.is_idle() {
            sched.tick().unwrap();
        }
        let after_cold = sched.clock().get();
        let cold = &sched.report().requests[0];
        assert_eq!(cold.shared_prefix_tokens, 0, "first request computes cold");
        let cold_ttft = cold.ttft();

        // The released session donated the prompt: two followers reserve
        // only their generation bytes and are admitted *together* under a
        // capacity that fits just one cold request.
        sched.submit(shared(after_cold)).unwrap();
        sched.submit(shared(after_cold)).unwrap();
        let out = sched.tick().unwrap();
        assert_eq!(out.admitted.len(), 2, "both fit via the prefix discount");
        assert_eq!(
            sched.kv_reserved(),
            Bytes(2 * new as u64 * cfg.kv_bytes_per_token()),
            "reservations exclude the pinned shared prefix"
        );
        while !sched.is_idle() {
            sched.tick().unwrap();
        }
        let report = sched.report();
        for r in &report.requests[1..] {
            assert_eq!(r.shared_prefix_tokens, prompt.len());
            assert_eq!(r.tokens, report.requests[0].tokens, "streams identical");
            assert!(
                r.ttft() < cold_ttft,
                "shared prefill is priced below cold: {} vs {}",
                r.ttft(),
                cold_ttft
            );
        }
    }

    #[test]
    fn prefix_scheduler_is_deterministic() {
        let run = || {
            let engine = ServeEngine::builder(ModelConfig::tiny())
                .synthetic_weights(13)
                .budget(Budget::new(16))
                .policy(Box::new(OracleTopKFactory))
                .prefix_store(Bytes(1 << 18))
                .build()
                .unwrap();
            let mut sched = Scheduler::new(
                engine,
                SchedConfig::fcfs(3)
                    .with_chunk_tokens(5)
                    .with_tick_token_budget(7),
            )
            .unwrap();
            // Alternating shared and unique prompts exercise hit, miss and
            // divergence paths of the store under interleaved chunks.
            for i in 0..6 {
                let prompt: Vec<usize> = if i % 2 == 0 {
                    (0..24).map(|t| (t * 3 + 1) % 128).collect()
                } else {
                    (0..9 + i).map(|t| (t * 7 + i) % 128).collect()
                };
                sched
                    .submit(Request {
                        prompt,
                        max_new_tokens: 4,
                        priority: 0,
                        arrival_time: Seconds(0.0003 * i as f64),
                        deadline: None,
                    })
                    .unwrap();
            }
            sched.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "prefix sharing must stay bit-deterministic");
        assert!(
            a.requests.iter().any(|r| r.shared_prefix_tokens > 0),
            "the shared prompts actually reused the store"
        );
    }

    #[test]
    fn clock_jumps_over_open_loop_gaps() {
        let mut sched = Scheduler::new(engine(), SchedConfig::fcfs(2)).unwrap();
        sched.submit(request(6, 1, 0, 5.0)).unwrap();
        let out = sched.tick().unwrap();
        assert_eq!(out.admitted, vec![RequestId(0)]);
        assert!(sched.clock() >= Seconds(5.0), "clock jumped to the arrival");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn admission_invariants_hold_and_nothing_starves(
            lens in proptest::collection::vec(1usize..24, 1..8),
            news in proptest::collection::vec(1usize..5, 1..8),
            prios in proptest::collection::vec(0u32..4, 1..8),
            policy_pick in 0usize..3,
            chunk in 1usize..9,
            budget in 1usize..12,
            max_sessions in 1usize..4,
        ) {
            let policy = match policy_pick {
                0 => SchedPolicy::Fcfs,
                1 => SchedPolicy::PriorityAging { aging_per_second: 50.0 },
                _ => SchedPolicy::RunToCompletion,
            };
            let kv_per_token = ModelConfig::tiny().kv_bytes_per_token();
            let capacity = Bytes(60 * kv_per_token);
            let cfg = SchedConfig::fcfs(max_sessions)
                .with_policy(policy)
                .with_chunk_tokens(chunk)
                .with_tick_token_budget(budget)
                .with_kv_capacity(capacity);
            let mut sched = Scheduler::new(engine(), cfg).unwrap();
            let n = lens.len().min(news.len()).min(prios.len());
            let mut expected = Vec::new();
            for i in 0..n {
                let r = request(lens[i].min(30), news[i], prios[i], 0.0003 * i as f64);
                expected.push((r.prompt.len(), r.max_new_tokens));
                sched.submit(r).unwrap();
            }
            let mut ticks = 0usize;
            while !sched.is_idle() {
                let out = sched.tick().unwrap();
                prop_assert!(out.prefill_tokens + out.decode_tokens <= budget);
                prop_assert!(sched.num_running() <= max_sessions);
                prop_assert!(sched.kv_reserved() <= capacity);
                ticks += 1;
                prop_assert!(ticks < 200_000, "runaway schedule");
            }
            // No starvation: every submitted request completed in full.
            let report = sched.report();
            prop_assert_eq!(report.requests.len(), n);
            for (r, &(plen, new)) in report.requests.iter().zip(&expected) {
                prop_assert_eq!(r.prompt_len, plen);
                prop_assert_eq!(r.tokens.len(), new);
                prop_assert!(r.first_token_at >= Some(r.admitted_at));
                prop_assert!(r.first_token_at.is_some_and(|t| r.finished_at >= t));
                prop_assert!(r.admitted_at >= r.arrival);
            }
        }
    }

    fn faulty_store_sched(plan: FaultPlan, max_retries: u32) -> Scheduler {
        let engine = ServeEngine::builder(ModelConfig::tiny())
            .synthetic_weights(13)
            .budget(Budget::new(16))
            .policy(Box::new(OracleTopKFactory))
            .prefix_store(Bytes(1 << 20))
            .build()
            .unwrap();
        Scheduler::new(
            engine,
            SchedConfig::fcfs(4)
                .with_faults(plan)
                .with_max_retries(max_retries),
        )
        .unwrap()
    }

    /// Completed token streams keyed by request id, for parity checks.
    fn streams(report: &ServingReport) -> std::collections::BTreeMap<u64, Vec<usize>> {
        report
            .completed()
            .map(|r| (r.id.0, r.tokens.clone()))
            .collect()
    }

    #[test]
    fn empty_report_ratios_are_zero_not_nan() {
        let sched = Scheduler::new(engine(), SchedConfig::fcfs(1)).unwrap();
        let report = sched.report();
        assert_eq!(report.retry_rate(), 0.0);
        assert_eq!(report.cancelled_fraction(), 0.0);
        assert_eq!(report.completed_fraction(), 0.0);
        assert_eq!(report.mean_ttft(), 0.0);
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.integrity(), IntegrityStats::default());
        assert!(report.ttfts().is_empty());
        assert!(report.e2es().is_empty());
        assert!(report.request_rows().is_empty());
    }

    #[test]
    fn mixed_completed_and_cancelled_requests_report_cleanly() {
        let mut sched = Scheduler::new(engine(), SchedConfig::fcfs(4)).unwrap();
        sched.submit(request(8, 4, 0, 0.0)).unwrap();
        let mut doomed = request(10, 4, 0, 0.0);
        doomed.deadline = Some(Seconds(0.0));
        sched.submit(doomed).unwrap();
        sched.submit(request(12, 4, 0, 0.0)).unwrap();
        let report = sched.run().unwrap();
        assert_eq!(report.requests.len(), 3);
        let timed_out: Vec<_> = report
            .requests
            .iter()
            .filter(|r| r.outcome == RequestOutcome::TimedOut)
            .collect();
        assert_eq!(timed_out.len(), 1, "the zero-deadline request timed out");
        assert_eq!(timed_out[0].id, RequestId(1));
        // The percentile/throughput emitters cover completed requests only
        // and stay well-formed in the presence of a cancelled request.
        assert_eq!(report.ttfts().len(), 2);
        assert_eq!(report.e2es().len(), 2);
        assert_eq!(report.request_rows().len(), 2);
        assert_eq!(report.total_generated, 8);
        assert!(report.mean_ttft().is_finite() && report.mean_ttft() > 0.0);
        assert!(report.throughput().is_finite() && report.throughput() > 0.0);
        assert!((report.cancelled_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.completed_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn queued_requests_past_their_deadline_are_shed_without_admission() {
        let cfg = ModelConfig::tiny();
        // Capacity for exactly one request's worst case: the second waits.
        let capacity = Bytes((16 + 8) as u64 * cfg.kv_bytes_per_token());
        let mut sched =
            Scheduler::new(engine(), SchedConfig::fcfs(4).with_kv_capacity(capacity)).unwrap();
        sched.submit(request(16, 8, 0, 0.0)).unwrap();
        let mut doomed = request(16, 8, 0, 0.0);
        doomed.deadline = Some(Seconds(1e-9));
        sched.submit(doomed).unwrap();
        let report = sched.run().unwrap();
        let shed = &report.requests[1];
        assert_eq!(shed.outcome, RequestOutcome::TimedOut);
        assert!(shed.tokens.is_empty(), "never ran, no partial stream");
        assert_eq!(shed.first_token_at, None);
        assert_eq!(report.requests[0].outcome, RequestOutcome::Completed);
    }

    #[test]
    fn crash_faults_retry_deterministically_and_preserve_streams() {
        let plan = FaultPlan {
            crash_rate: 0.08,
            ..FaultPlan::disabled().with_seed(41)
        };
        let run = |plan: FaultPlan| {
            let mut sched = faulty_store_sched(plan, 8);
            for i in 0..6 {
                sched
                    .submit(request(10 + i, 6, 0, 0.0002 * i as f64))
                    .unwrap();
            }
            sched.run().unwrap()
        };
        let faulty = run(plan);
        let clean = run(FaultPlan::disabled());
        assert!(
            faulty.retry_rate() > 0.0,
            "crash faults actually fired at rate 0.08"
        );
        // Retries change *when*, never *what*: every completed stream is
        // byte-identical to the uninterrupted run (checkpoint/restore via
        // the prefix store plus deterministic replay).
        let clean_streams = streams(&clean);
        for (id, tokens) in streams(&faulty) {
            assert_eq!(
                Some(&tokens),
                clean_streams.get(&id),
                "request {id} diverged after crash recovery"
            );
        }
        let again = run(plan);
        assert_eq!(faulty, again, "crash schedules are bit-identical");
    }

    #[test]
    fn crash_retry_budget_exhaustion_cancels_the_request() {
        let plan = FaultPlan {
            crash_rate: 0.99,
            ..FaultPlan::disabled().with_seed(7)
        };
        let mut sched = faulty_store_sched(plan, 2);
        sched.submit(request(8, 6, 0, 0.0)).unwrap();
        let report = sched.run().unwrap();
        assert_eq!(report.requests.len(), 1);
        let r = &report.requests[0];
        assert!(
            matches!(r.outcome, RequestOutcome::Cancelled { .. }),
            "rate-1.0 crashes exhaust the retry budget, got {:?}",
            r.outcome
        );
        assert_eq!(r.retries, 2, "both retries were consumed first");
        assert_eq!(report.completed_fraction(), 0.0);
        assert_eq!(report.total_generated, 0, "goodput counts completions only");
        assert!(sched.is_idle());
        assert_eq!(sched.kv_reserved(), Bytes(0), "no leaked reservations");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // Degradation-ladder invariants: capacity pressure may delay or
        // throttle requests but never drops one, never overcommits the
        // scaled KV bound, and never perturbs a token stream.
        #[test]
        fn pressure_ladder_never_drops_or_perturbs_requests(
            seed in 0u64..512,
            rate in 0.1f64..0.9,
        ) {
            let plan = FaultPlan {
                pressure_rate: rate,
                pressure_floor: 0.5,
                ..FaultPlan::disabled().with_seed(seed)
            };
            let kv_per_token = ModelConfig::tiny().kv_bytes_per_token();
            let capacity = Bytes(60 * kv_per_token);
            let run = |plan: FaultPlan| {
                let mut sched = Scheduler::new(
                    engine(),
                    SchedConfig::fcfs(3)
                        .with_kv_capacity(capacity)
                        .with_faults(plan),
                )
                .unwrap();
                for i in 0..5 {
                    sched.submit(request(8 + i, 4, 0, 0.0003 * i as f64)).unwrap();
                }
                let mut max_level = 0u8;
                while !sched.is_idle() {
                    let out = sched.tick().unwrap();
                    max_level = max_level.max(out.pressure_level);
                    prop_assert!(out.pressure_level <= 3);
                    prop_assert!(sched.kv_reserved() <= capacity);
                }
                Ok((sched.report(), max_level))
            };
            let (faulty, level) = run(plan)?;
            let (clean, _) = run(FaultPlan::disabled())?;
            prop_assert!(level >= 1, "pressure at rate {rate} fired at least once");
            // Pinned/resident state is never dropped: every request still
            // delivers its full stream, byte-identical to the calm run.
            prop_assert_eq!(faulty.cancelled_fraction(), 0.0);
            prop_assert_eq!(streams(&faulty), streams(&clean));
        }

        // Checkpoint/restore parity: a crashed request re-admitted through
        // the prefix-store checkpoint regenerates exactly the stream an
        // uninterrupted run would have produced, bitwise.
        #[test]
        fn checkpoint_restore_replay_matches_uninterrupted_runs(
            seed in 0u64..512,
            rate in 0.02f64..0.2,
        ) {
            let plan = FaultPlan {
                crash_rate: rate,
                ..FaultPlan::disabled().with_seed(seed)
            };
            let run = |plan: FaultPlan| {
                let mut sched = faulty_store_sched(plan, 6);
                for i in 0..4 {
                    sched.submit(request(9 + i, 5, 0, 0.0002 * i as f64)).unwrap();
                }
                sched.run().unwrap()
            };
            let faulty = run(plan);
            let clean = run(FaultPlan::disabled());
            let clean_streams = streams(&clean);
            for (id, tokens) in streams(&faulty) {
                prop_assert_eq!(Some(&tokens), clean_streams.get(&id));
            }
        }
    }
}

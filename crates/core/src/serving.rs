//! Sharded concurrent serving on top of one [`SeerEngine`].
//!
//! A single [`SeerEngine`] is `Send + Sync` and caches every plan it
//! computes. The [`ServingPool`] runs many worker threads over one such
//! engine:
//!
//! * it owns `N` **shards**, each one `std::thread` worker draining its own
//!   queue, and one [`SeerEngine`] that the pool builds once. Every request
//!   is selected on that engine when it is routed, and every worker executes
//!   that engine's prepared plans. So no selection plan (nor prepared
//!   execution plan: a warm execute replays the cached `(matrix, kernel)`
//!   [`seer_kernels::PreparedPlan`] instead of re-deriving partition tables
//!   or padded layouts) is ever computed twice for the same key, whichever
//!   worker serves the request;
//! * a request goes to the shard with the fewest pending requests. Ties go
//!   to the home shard
//!   [`sparsity_fingerprint`](seer_sparse::CsrMatrix::sparsity_fingerprint)`
//!   % N`, so an idle pool keeps a matrix — including its replays after a
//!   value-only [`update_values`](seer_sparse::CsrMatrix::update_values)
//!   mutation — on one shard, while a burst spreads over idle workers;
//! * [`ServingPool::submit`] is non-blocking and returns a [`Ticket`] that
//!   resolves to the [`ServingResponse`]; [`ServingPool::drain`] blocks until
//!   every accepted request has been served; [`ServingPool::shutdown`] drains,
//!   joins the workers and returns the final [`PoolStats`].
//!
//! Because selection is a pure function of (models, matrix, iterations,
//! policy), a pooled run returns **bit-identical** selections to a sequential
//! [`SeerEngine`] replay of the same request stream, whatever the
//! thread/shard interleaving — `tests/serving_pool.rs` holds this invariant
//! under an 8-thread hammer.
//!
//! # Heterogeneous fleets
//!
//! A pool built over a multi-device [`Fleet`]
//! ([`ServingPool::with_fleet`]) becomes a **device-aware router**:
//! [`PoolConfig::shards`] shards are pinned to *each* device, the pool
//! engine spans the whole fleet (so its selections are fleet-wide
//! deterministic), and routing composes two levels:
//!
//! 1. **device affinity** — the pool engine resolves the request's
//!    `(kernel, device)` selection (cached per plan key, so repeat traffic
//!    routes with one hash probe) and picks the selected device's shard
//!    group;
//! 2. **shortest queue** — within the group, the shard with the fewest
//!    pending requests takes the job, ties going to the home shard
//!    `sparsity_fingerprint() % group_size`.
//!
//! The workers share the engine's caches, so each `(fingerprint, device,
//! kernel)` prepared execution plan is built exactly once pool-wide,
//! whichever shard of the group serves it. [`PoolStats::devices`] reports
//! per-device queue depth, served counts and the engine's per-device
//! counters. A single-device pool is the same machinery with one group.
//!
//! # Elastic membership
//!
//! The fleet behind a running pool can change. [`ServingPool::add_device`]
//! registers a device and publishes a fresh shard group pinned to it;
//! [`ServingPool::retire_device`] marks the device retired, narrowly
//! invalidates its cached kernel costs and prepared plans on the pool
//! engine ([`SeerEngine::invalidate_device`]), unpublishes its shard group
//! and drains the group's backlog onto surviving devices: a queued request
//! whose selected device is no longer live re-selects once on the pool
//! engine when its plan activates. A request whose placement device dies
//! mid-execution (fault injection: [`Fleet::fail_device`]) is retried
//! exactly once on a surviving device —
//! counted in [`ShardStats::device_failures`], [`ShardStats::retried`] and
//! [`ShardStats::migrated`] — so its [`Ticket`] resolves to a correct
//! response instead of an error; [`ServingError::WorkerDied`] stays
//! reserved for genuine worker panics.
//!
//! # Admission control & overload
//!
//! Every pool has one front door. Each shard's queue has three **priority
//! lanes** ([`Priority::Interactive`] / [`Priority::Batch`] /
//! [`Priority::BestEffort`]) dequeued strictly in that order, and a request
//! may carry a [`ServingRequest::deadline`]: one still queued when it passes
//! is shed at dequeue — never executed — and resolves its ticket to
//! [`ServingError::DeadlineExceeded`]. [`PoolConfig::with_admission`] bounds
//! the door: per-shard queues of [`AdmissionConfig::queue_capacity`] and an
//! optional pool-wide in-flight cap ([`AdmissionConfig::max_in_flight`]). A
//! pool built without it runs `AdmissionConfig::bounded(0)` — unbounded
//! queues, no cap — through the same code, so it sheds only while shutting
//! down.
//!
//! [`ServingPool::try_submit`] never blocks: it returns
//! [`SubmitOutcome::Accepted`] with a ticket or [`SubmitOutcome::Shed`] with
//! a typed [`ShedReason`]. [`ServingPool::submit`] waits for capacity
//! instead (backpressure, counted in
//! [`AdmissionPoolStats::backpressure_waits`]), and
//! [`ServingPool::submit_with_timeout`] bounds that wait. A full queue sheds
//! by [`ShedPolicy`]: reject the newcomer, or evict the newest
//! strictly-lower-priority queued request to make room. A submit racing
//! [`ServingPool::begin_shutdown`] or a retire resolves its ticket to the
//! typed [`ServingError::PoolClosed`] rather than panicking. Queue-wait and
//! end-to-end latency distributions are recorded per priority class in
//! fixed log-scale histograms ([`PoolStats::latency`], `p50/p99/p999`).
//!
//! # Routing offload & same-fingerprint micro-batching
//!
//! One route-and-push places every request, once, in admission order: it
//! fingerprints the matrix, resolves and bills the request's selection on
//! the pool engine, pushes the job onto the shortest queue of the selected
//! device's shard group, re-routes when a retire closed that queue, evicts
//! under [`ShedPolicy::DropLowestPriority`], and waits or sheds on a full
//! queue. Without [`PoolConfig::with_routing`] it runs on the submitter's
//! thread. With it:
//!
//! * **Routing offload** — `submit`/`try_submit` push the admitted job onto
//!   a small bounded *routing stage* in O(1), and one dedicated routing
//!   worker runs the route-and-push, so no profile pass, cost sweep or
//!   cache walk runs on the submitting thread, even for a cold matrix. The
//!   in-flight cap is reserved at submit. A full stage sheds with
//!   [`ShedReason::RoutingStageFull`] (non-blocking) or backpressures the
//!   submitter (blocking); the routing worker itself waits out a full shard
//!   queue. Per-submit latency is recorded in [`RoutingPoolStats::submit`].
//! * **Micro-batching** — a shard worker dequeues a run of up to
//!   [`RoutingConfig::max_batch`] *adjacent* queued requests from the same
//!   priority lane that share a sparsity fingerprint, workload kind,
//!   iteration count, policy, selection and matrix content. Without routing
//!   every run is one request.
//!
//! # Serving a run
//!
//! Every dequeue is a run of one or more requests, served by one path. Each
//! member's queue wait is recorded and its deadline checked. The run's plan
//! is activated on its first live member — the routed selection for
//! select-only work, one `Arc<PreparedPlan>` pin for execute work — and
//! every member runs against it, so a burst of K identical operators costs
//! one cache walk instead of K. Each member is billed the selection
//! overhead its own routing incurred: the first admitted request of a plan
//! key carries the miss and the rest are pure kernel time, exactly as in a
//! sequential replay, so responses stay **bit-identical** to sequential
//! serving whichever worker serves them. A run whose selected device is no
//! longer live re-selects once on the pool engine. A panic fails only its
//! own member. A dead placement device drops the activation, and the
//! member is retried once on a fresh one, which the rest of the run then
//! shares. Runs form only at dequeue, so an eviction or expiry of a queued
//! would-be batchmate needs no special casing.
//!
//! The counters ([`PoolStats::routing`]) show both layers: `routed_async`
//! counts stage-forwarded requests, `batched_requests` /
//! `batch_activations` give the mean run size, and in-stage requests caught
//! by a shutdown resolve typed ([`ServingError::PoolClosed`], counted in
//! [`RoutingPoolStats::stage_closed`]). Every admitted request resolves
//! exactly once, so the books balance: once drained, `served + shed +
//! expired + failed + (device_failures - retried) == offered` (see
//! [`ShardStats::served`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use seer_core::engine::SeerEngine;
//! use seer_core::serving::{PoolConfig, ServingPool, ServingRequest};
//! use seer_core::training::TrainingConfig;
//! use seer_gpu::Gpu;
//! use seer_sparse::collection::{generate, CollectionConfig};
//!
//! # fn main() -> Result<(), seer_core::SeerError> {
//! let collection = generate(&CollectionConfig::tiny());
//! let (engine, _) =
//!     SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())?;
//!
//! let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(2));
//! let matrix = Arc::new(collection[0].matrix.clone());
//! let ticket = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
//! let response = ticket.wait().expect("serving worker is healthy");
//! assert_eq!(response.selection, engine.select(&matrix, 19));
//!
//! let stats = pool.shutdown();
//! assert_eq!(stats.completed(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use seer_gpu::{DeviceFailed, DeviceId, Fleet, Gpu, GpuSpec, MembershipError, SimTime, SpecError};
use seer_sparse::{CsrMatrix, Scalar};

use crate::engine::{
    EngineStats, EngineWorkspace, PlanActivation, RecalibrationConfig, SeerEngine,
};
use crate::inference::{Selection, SelectionPolicy};
use crate::training::SeerModels;

/// Configuration of a [`ServingPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Number of shards (worker threads, each with its own queue) pinned to
    /// *each* fleet device: a pool over an `N`-device fleet runs `N x
    /// shards` workers. For the single-device constructors this is simply
    /// the total shard count.
    pub shards: usize,
    /// Enable structure-class selection inheritance
    /// ([`SeerEngine::set_structure_class_reuse`]) on the pool engine, so
    /// fresh matrices from an already-served structure class skip the cold
    /// selection sweep. Off by default: inherited
    /// selections are approximate by design, and the pool's differential
    /// guarantees against a sequential engine hold exactly only without it.
    pub structure_class_reuse: bool,
    /// Online recalibration ([`SeerEngine::set_recalibration`]) on the pool
    /// engine: a timing drift observed by any worker's execute traffic
    /// reweights placement for the whole pool. `None` (the default) keeps
    /// the pool bit-identical to a sequential engine replay.
    pub recalibration: Option<RecalibrationConfig>,
    /// Admission control at the pool's front door: bounded per-shard queues,
    /// an optional pool-wide in-flight cap and a full-queue [`ShedPolicy`].
    /// `None` (the default) runs `AdmissionConfig::bounded(0)`: unbounded
    /// queues and no cap, so submits shed only while the pool shuts down.
    pub admission: Option<AdmissionConfig>,
    /// Routing offload and same-fingerprint micro-batching (see the
    /// [module docs](self#routing-offload--same-fingerprint-micro-batching)).
    /// `None` (the default) routes on the submitter's thread and serves
    /// runs of one request, with every [`RoutingPoolStats`] counter zero.
    pub routing: Option<RoutingConfig>,
}

impl PoolConfig {
    /// A pool with `shards` shards per device (clamped to at least one).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            structure_class_reuse: false,
            recalibration: None,
            admission: None,
            routing: None,
        }
    }

    /// Returns the config with structure-class reuse switched on or off.
    pub fn with_class_reuse(mut self, enabled: bool) -> Self {
        self.structure_class_reuse = enabled;
        self
    }

    /// Returns the config with pool-wide observed-timing recalibration
    /// installed (or removed, with `None`).
    pub fn with_recalibration(mut self, config: Option<RecalibrationConfig>) -> Self {
        self.recalibration = config;
        self
    }

    /// Returns the config with front-door admission control installed (or
    /// removed, with `None`).
    pub fn with_admission(mut self, config: Option<AdmissionConfig>) -> Self {
        self.admission = config;
        self
    }

    /// Returns the config with routing offload + micro-batching installed
    /// (or removed, with `None`).
    pub fn with_routing(mut self, config: Option<RoutingConfig>) -> Self {
        self.routing = config;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::with_shards(4)
    }
}

/// Priority class of a [`ServingRequest`]. Each shard queue keeps one lane
/// per class and always dequeues the highest class first, so interactive
/// work overtakes queued batch work; under
/// [`ShedPolicy::DropLowestPriority`] pressure sheds the lowest class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground work: dequeued before every other class
    /// and shed last. The default, so requests that never mention a class
    /// keep the pool's classic latency behaviour.
    #[default]
    Interactive,
    /// Throughput work that tolerates queueing behind interactive traffic.
    Batch,
    /// Scavenger work: dequeued last and the first class an overloaded pool
    /// sheds.
    BestEffort,
}

impl Priority {
    /// Every class, in dequeue order (highest priority first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// The class's queue-lane index: lane 0 dequeues first, lane 2 last.
    pub fn lane(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
            Priority::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// What a bounded shard queue does with an incoming request when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Shed the incoming request (classic tail drop). Queued work is never
    /// disturbed, so every already-issued ticket still resolves in arrival
    /// order.
    #[default]
    RejectNewest,
    /// Evict the newest queued request of the lowest class *strictly below*
    /// the newcomer's to make room — the victim's ticket resolves to
    /// [`ServingError::Shed`] with [`ShedReason::Evicted`]. When nothing
    /// queued ranks below the newcomer, falls back to rejecting the
    /// newcomer.
    DropLowestPriority,
}

/// Admission control of a [`ServingPool`]'s front door. Installed with
/// [`PoolConfig::with_admission`]; see the
/// [module docs](self#admission-control--overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted, not yet dequeued) requests per shard,
    /// summed over the three priority lanes. `0` means unbounded; priority
    /// lanes and deadlines still apply.
    pub queue_capacity: usize,
    /// Pool-wide cap on in-flight requests (admitted and not yet resolved).
    /// `0` means uncapped.
    pub max_in_flight: usize,
    /// What a full shard queue does with an incoming request.
    pub shed_policy: ShedPolicy,
}

impl AdmissionConfig {
    /// Admission control with per-shard queues bounded at `queue_capacity`,
    /// no in-flight cap and the default [`ShedPolicy::RejectNewest`].
    pub fn bounded(queue_capacity: usize) -> Self {
        Self {
            queue_capacity,
            max_in_flight: 0,
            shed_policy: ShedPolicy::RejectNewest,
        }
    }

    /// Returns the config with the pool-wide in-flight cap set (`0` =
    /// uncapped).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Returns the config with the full-queue policy set.
    pub fn with_shed_policy(mut self, shed_policy: ShedPolicy) -> Self {
        self.shed_policy = shed_policy;
        self
    }
}

impl Default for AdmissionConfig {
    /// 1024-deep shard queues, no in-flight cap, reject-newest shedding.
    fn default() -> Self {
        Self::bounded(1024)
    }
}

/// Routing offload + same-fingerprint micro-batching of a [`ServingPool`].
/// Installed with [`PoolConfig::with_routing`]; see the
/// [module docs](self#routing-offload--same-fingerprint-micro-batching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Maximum requests queued in the routing stage (submitted, not yet
    /// forwarded to a shard). A full stage sheds non-blocking submits with
    /// [`ShedReason::RoutingStageFull`] and backpressures blocking ones.
    /// `0` means unbounded.
    pub stage_capacity: usize,
    /// Maximum queued same-fingerprint requests a shard worker coalesces
    /// into one plan activation at dequeue. `1` (or `0`) disables
    /// coalescing while keeping the routing offload.
    pub max_batch: usize,
}

impl RoutingConfig {
    /// Returns the config with the routing-stage bound set (`0` =
    /// unbounded).
    pub fn with_stage_capacity(mut self, stage_capacity: usize) -> Self {
        self.stage_capacity = stage_capacity;
        self
    }

    /// Returns the config with the per-dequeue coalescing bound set.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }
}

impl Default for RoutingConfig {
    /// A 1024-deep routing stage and runs of up to 8 coalesced requests.
    fn default() -> Self {
        Self {
            stage_capacity: 1024,
            max_batch: 8,
        }
    }
}

/// Why the admission controller refused — or revoked — a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedReason {
    /// The chosen shard's bounded queue was full (and, under
    /// [`ShedPolicy::DropLowestPriority`], nothing queued ranked strictly
    /// below the newcomer).
    QueueFull {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The pool-wide [`AdmissionConfig::max_in_flight`] cap was reached.
    InFlightCap,
    /// A blocking [`ServingPool::submit_with_timeout`] spent its whole
    /// timeout waiting for capacity.
    BackpressureTimeout,
    /// The bounded routing stage of a routing-offloaded pool
    /// ([`PoolConfig::with_routing`]) was full (non-blocking submits;
    /// blocking submits backpressure instead).
    RoutingStageFull,
    /// An already-queued request was evicted by a higher-priority arrival
    /// under [`ShedPolicy::DropLowestPriority`].
    Evicted {
        /// The shard whose queue the victim was evicted from.
        shard: usize,
    },
    /// The pool is shutting down ([`ServingPool::begin_shutdown`],
    /// [`ServingPool::shutdown`] or drop).
    PoolClosed,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { shard } => write!(f, "shard {shard}'s bounded queue was full"),
            Self::InFlightCap => write!(f, "the pool-wide in-flight cap was reached"),
            Self::BackpressureTimeout => {
                write!(f, "the submit timed out waiting for pool capacity")
            }
            Self::RoutingStageFull => write!(f, "the bounded routing stage was full"),
            Self::Evicted { shard } => {
                write!(f, "evicted from shard {shard} by a higher-priority arrival")
            }
            Self::PoolClosed => write!(f, "the pool is shutting down"),
        }
    }
}

/// The typed outcome of a non-blocking [`ServingPool::try_submit`] or a
/// bounded [`ServingPool::submit_with_timeout`].
#[derive(Debug)]
#[must_use = "a shed request was never enqueued; inspect the outcome"]
pub enum SubmitOutcome {
    /// The request was admitted; the ticket resolves to its response.
    Accepted(Ticket),
    /// The request was refused at the front door and will never execute.
    /// No ticket exists; the refusal is counted in
    /// [`PoolStats::admission`].
    Shed {
        /// Why admission refused the request.
        reason: ShedReason,
    },
}

impl SubmitOutcome {
    /// Whether the request was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Self::Accepted(_))
    }

    /// The ticket of an accepted request; `None` if it was shed.
    pub fn ticket(self) -> Option<Ticket> {
        match self {
            Self::Accepted(ticket) => Some(ticket),
            Self::Shed { .. } => None,
        }
    }

    /// The shed reason of a refused request; `None` if it was accepted.
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match self {
            Self::Accepted(_) => None,
            Self::Shed { reason } => Some(*reason),
        }
    }
}

/// What a request asks its shard to do.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Produce a [`Selection`] only (the paper's runtime decision).
    SelectOnly,
    /// Select, then functionally execute the chosen kernel on `x` and report
    /// the modelled end-to-end time.
    Execute {
        /// The dense input vector; must satisfy `x.len() == matrix.cols()`.
        x: Arc<Vec<Scalar>>,
    },
    /// Chaos workload: panics inside the serving worker. Exists so the
    /// worker-death recovery path ([`ServingError::WorkerDied`]) can be
    /// exercised deterministically; never useful in production traffic.
    #[doc(hidden)]
    PanicInjection,
    /// Chaos workload: blocks the serving worker until the shared gate is
    /// set to `true`, then serves like [`Workload::SelectOnly`]. Exists so
    /// tests can deterministically sequence a membership change against a
    /// queued backlog; never useful in production traffic.
    #[doc(hidden)]
    Gate {
        /// Open the gate by setting the flag and notifying the Condvar.
        gate: Arc<(Mutex<bool>, Condvar)>,
    },
}

/// One request submitted to a [`ServingPool`].
#[derive(Debug, Clone)]
pub struct ServingRequest {
    /// The target matrix. `Arc` so a hot matrix is shared, not copied, across
    /// the submitters and queues of a busy service.
    pub matrix: Arc<CsrMatrix>,
    /// Workload length the selection optimizes for.
    pub iterations: usize,
    /// Which predictor flow to follow.
    pub policy: SelectionPolicy,
    /// Whether to stop at the selection or also execute the kernel.
    pub workload: Workload,
    /// Priority class: which queue lane the request waits in and how eager
    /// an overloaded pool is to shed it. [`Priority::Interactive`] by
    /// default.
    pub priority: Priority,
    /// Optional deadline. A request still queued when its deadline passes
    /// is shed at dequeue — never executed — and its ticket resolves to
    /// [`ServingError::DeadlineExceeded`]. A request already executing is
    /// never interrupted. `None` (the default) never expires.
    pub deadline: Option<Instant>,
}

impl ServingRequest {
    /// A selection-only request under the adaptive (Fig. 3) policy.
    pub fn select(matrix: Arc<CsrMatrix>, iterations: usize) -> Self {
        Self {
            matrix,
            iterations,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::SelectOnly,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// A select-and-execute request under the adaptive policy.
    pub fn execute(matrix: Arc<CsrMatrix>, x: Arc<Vec<Scalar>>, iterations: usize) -> Self {
        Self {
            matrix,
            iterations,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::Execute { x },
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// The same request under a different [`SelectionPolicy`].
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The same request in a different [`Priority`] class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request with an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The same request with a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }
}

/// The served result of one [`ServingRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResponse {
    /// The selection the pool engine made.
    pub selection: Selection,
    /// The product vector, for [`Workload::Execute`] requests.
    pub result: Option<Vec<Scalar>>,
    /// Modelled end-to-end time, for [`Workload::Execute`] requests. Plan
    /// replays charge no selection overhead, exactly like
    /// [`SeerEngine::execute`].
    pub total_time: Option<SimTime>,
    /// Index of the shard that served the request.
    pub shard: usize,
}

/// A recoverable serving failure, reported through [`Ticket`] accessors
/// instead of a panic on the *caller's* thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServingError {
    /// The serving worker dropped the request without replying — it panicked
    /// while serving this request. The worker itself survives (the serve
    /// call is unwind-isolated), the failure is recorded in
    /// [`ShardStats::failed`], and only this request's ticket observes the
    /// error.
    WorkerDied {
        /// The shard whose worker dropped the request.
        shard: usize,
    },
    /// The request's placement device died mid-execution, and the bounded
    /// retry on a surviving device also hit a dead device (or no live device
    /// remained). The request was *not* silently dropped — both attempts are
    /// counted in [`ShardStats::device_failures`] and the retry in
    /// [`ShardStats::retried`] — but the pool will not retry unboundedly.
    /// It counts in none of `served`, `failed`, `expired` or `shed`: it is
    /// the `device_failures - retried` term of the balance identity on
    /// [`ShardStats::served`]. Distinct from [`ServingError::WorkerDied`],
    /// which is reserved for genuine worker panics.
    DeviceFailed {
        /// The device whose failure exhausted the retry budget.
        device: DeviceId,
    },
    /// The request was still queued when its [`ServingRequest::deadline`]
    /// passed: it was shed at dequeue — never executed — and counted in
    /// [`ShardStats::expired`].
    DeadlineExceeded {
        /// The shard whose queue the request expired in.
        shard: usize,
    },
    /// The request was admitted but later shed by the admission controller
    /// — evicted from its queue by a higher-priority arrival under
    /// [`ShedPolicy::DropLowestPriority`]. Counted in
    /// [`ShardStats::shed`].
    Shed {
        /// Why the admitted request was shed.
        reason: ShedReason,
    },
    /// The pool began shutting down before the request could be enqueued —
    /// the typed outcome of a [`ServingPool::submit`] racing
    /// [`ServingPool::begin_shutdown`] / [`ServingPool::shutdown`].
    PoolClosed,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerDied { shard } => {
                write!(f, "serving worker for shard {shard} dropped the request")
            }
            Self::DeviceFailed { device } => {
                write!(
                    f,
                    "request failed on {device} and the one bounded retry also failed"
                )
            }
            Self::DeadlineExceeded { shard } => {
                write!(
                    f,
                    "request expired in shard {shard}'s queue before it could execute"
                )
            }
            Self::Shed { reason } => write!(f, "request shed after admission: {reason}"),
            Self::PoolClosed => write!(f, "the serving pool is shutting down"),
        }
    }
}

impl std::error::Error for ServingError {}

/// The one-shot resolution slot shared by a [`Ticket`] and the worker-side
/// [`Responder`] that fills it. The Condvar means a parked [`Ticket::wait`]
/// wakes the moment the worker resolves the outcome — no polling loop, no
/// wake latency beyond the scheduler's.
#[derive(Debug)]
struct TicketCell {
    outcome: Mutex<Option<Result<ServingResponse, ServingError>>>,
    resolved: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            outcome: Mutex::new(None),
            resolved: Condvar::new(),
        })
    }

    /// Stores the outcome (first writer wins) and wakes every waiter.
    fn resolve(&self, outcome: Result<ServingResponse, ServingError>) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        self.resolved.notify_all();
    }
}

/// The worker-side half of a ticket: resolves it exactly once. Dropping a
/// `Responder` unresolved — a panic mid-serve, a job stranded in a closed
/// queue, a failed send — resolves the ticket to
/// [`ServingError::WorkerDied`], so a waiter can never hang on a request
/// nothing will serve.
#[derive(Debug)]
struct Responder {
    cell: Option<Arc<TicketCell>>,
    shard: usize,
}

impl Responder {
    fn resolve(mut self, outcome: Result<ServingResponse, ServingError>) {
        if let Some(cell) = self.cell.take() {
            cell.resolve(outcome);
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.resolve(Err(ServingError::WorkerDied { shard: self.shard }));
        }
    }
}

/// A pending response from a [`ServingPool`].
///
/// Every accessor returns `Result`: a worker that panics while serving this
/// request surfaces as a recoverable [`ServingError::WorkerDied`] rather
/// than a panic in the waiting caller, and a request whose bounded device
/// retry is exhausted surfaces [`ServingError::DeviceFailed`].
///
/// [`Ticket::wait`] and [`Ticket::wait_timeout`] block on a Condvar shared
/// with the serving worker, so a parked waiter wakes promptly when the
/// outcome lands instead of polling a channel.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<TicketCell>,
    shard: usize,
    /// An outcome already taken out of the cell by one of the borrowing
    /// accessors ([`Ticket::try_wait`], [`Ticket::wait_timeout`]), kept so a
    /// later `wait` still observes it.
    received: Option<Result<ServingResponse, ServingError>>,
}

impl Ticket {
    /// The shard the request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Whether the request has resolved — served *or* failed — without
    /// blocking. The outcome stays owned by the ticket, so `is_done`
    /// followed by [`Ticket::wait`] never loses it; a dead worker resolves
    /// the ticket (to [`ServingError::WorkerDied`]) rather than turning the
    /// documented polling loop into a silent spin.
    pub fn is_done(&self) -> bool {
        self.received.is_some()
            || self
                .cell
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
    }

    /// Blocks until the request resolves, parking on the ticket's Condvar.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::WorkerDied`] if the serving worker panicked
    /// on this request and dropped it without replying (other requests on
    /// the same shard are unaffected), or [`ServingError::DeviceFailed`] if
    /// the request's device died and the bounded retry failed too.
    pub fn wait(self) -> Result<ServingResponse, ServingError> {
        if let Some(outcome) = self.received {
            return outcome;
        }
        let slot = self
            .cell
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        wait_for(&self.cell.resolved, slot, None, Option::take)
            .1
            .expect("a wait without a deadline returns only once resolved")
    }

    /// Returns the response if the request has already resolved, without
    /// blocking; `Ok(None)` while it is still in flight.
    ///
    /// A response observed here stays owned by the ticket: polling
    /// `try_wait` and then calling [`Ticket::wait`] returns the same
    /// response rather than losing it.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::WorkerDied`] or
    /// [`ServingError::DeviceFailed`] if the request failed, like
    /// [`Ticket::wait`].
    pub fn try_wait(&mut self) -> Result<Option<&ServingResponse>, ServingError> {
        if self.received.is_none() {
            self.received = self
                .cell
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
        match &self.received {
            Some(Ok(response)) => Ok(Some(response)),
            Some(Err(error)) => Err(*error),
            None => Ok(None),
        }
    }

    /// Waits up to `timeout` for the request to resolve, without consuming
    /// the ticket. Returns `Ok(None)` on timeout; the ticket stays valid, so
    /// callers can interleave bounded waits with other work and still
    /// [`Ticket::wait`] (or poll again) later. Like the other accessors, an
    /// observed outcome stays owned by the ticket. The wait parks on the
    /// ticket's Condvar (spurious wakes re-checked against the deadline)
    /// rather than spinning.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::WorkerDied`] or
    /// [`ServingError::DeviceFailed`] if the request failed, like
    /// [`Ticket::wait`].
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<&ServingResponse>, ServingError> {
        if self.received.is_none() {
            let slot = self
                .cell
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let deadline = Some(Instant::now() + timeout);
            self.received = wait_for(&self.cell.resolved, slot, deadline, Option::take).1;
        }
        match &self.received {
            Some(Ok(response)) => Ok(Some(response)),
            Some(Err(error)) => Err(*error),
            None => Ok(None),
        }
    }
}

/// Number of fixed log-scale buckets in a latency histogram: bucket `i`
/// counts samples in `[2^i, 2^(i+1))` nanoseconds, which spans 1 ns to
/// centuries — no recorded duration is ever out of range.
pub const LATENCY_BUCKETS: usize = 64;

/// One latency distribution with lock-free recording: 64 fixed
/// power-of-two buckets, so `record` is a leading-zeros count plus one
/// relaxed atomic increment — no allocation, no lock, no sorting on the
/// serving hot path.
#[derive(Debug)]
struct AtomicHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
}

impl AtomicHistogram {
    fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, duration: Duration) {
        let nanos = duration.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let bucket = 63 - nanos.leading_zeros() as usize;
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        let total = counts.iter().fold(0u64, |n, &c| n.saturating_add(c));
        HistogramSnapshot { counts, total }
    }
}

/// An immutable snapshot of one fixed-bucket log-scale latency histogram:
/// bucket `i` counts samples in `[2^i, 2^(i+1))` nanoseconds. Quantiles
/// interpolate linearly inside the bounding bucket; an empty histogram's
/// quantiles are all [`Duration::ZERO`] — never `NaN`, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Per-bucket sample counts; bucket `i` spans `[2^i, 2^(i+1))` ns.
    pub fn bucket_counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// The `q`-quantile (clamped into `[0, 1]`) of the recorded samples,
    /// linearly interpolated inside its log-scale bucket.
    /// [`Duration::ZERO`] when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // 1-based rank of the sample bounding the quantile.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if below + count >= target {
                // The bucket spans [2^bucket, 2^(bucket+1)): interpolate by
                // the rank's position among the bucket's samples.
                let lower = (1u128 << bucket) as f64;
                let fraction = (target - below) as f64 / count as f64;
                return Duration::from_nanos((lower + lower * fraction) as u64);
            }
            below += count;
        }
        Duration::ZERO
    }

    /// Median latency ([`Duration::ZERO`] when empty).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency ([`Duration::ZERO`] when empty).
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency ([`Duration::ZERO`] when empty).
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }
}

/// The pool-wide latency recorder: queue-wait and end-to-end distributions,
/// one atomic histogram per priority class each. Always recorded — the
/// histograms are pure observability and never influence serving.
#[derive(Debug)]
struct LatencyRecorder {
    queue_wait: [AtomicHistogram; 3],
    end_to_end: [AtomicHistogram; 3],
}

impl LatencyRecorder {
    fn new() -> Self {
        Self {
            queue_wait: std::array::from_fn(|_| AtomicHistogram::new()),
            end_to_end: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            queue_wait: std::array::from_fn(|i| self.queue_wait[i].snapshot()),
            end_to_end: std::array::from_fn(|i| self.end_to_end[i].snapshot()),
        }
    }
}

/// Snapshot of a pool's latency distributions, per priority class, in
/// [`PoolStats::latency`]. Queue wait runs from the push onto the shard
/// queue to the dequeue, for every dequeued request (served, expired or
/// failed). End-to-end runs from admission to resolution, for served
/// requests only; admission is the moment the pool accepts the ticket —
/// the routing-stage push on a routed pool, the shard push otherwise — so
/// time a routed request spends in the stage counts toward end-to-end but
/// not toward queue wait.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    queue_wait: [HistogramSnapshot; 3],
    end_to_end: [HistogramSnapshot; 3],
}

impl LatencySnapshot {
    /// The queue-wait (shard push → dequeue) distribution of one priority
    /// class.
    pub fn queue_wait(&self, class: Priority) -> &HistogramSnapshot {
        &self.queue_wait[class.lane()]
    }

    /// The end-to-end (admission → resolution) distribution of one
    /// priority class's served requests.
    pub fn end_to_end(&self, class: Priority) -> &HistogramSnapshot {
        &self.end_to_end[class.lane()]
    }
}

/// Snapshot of one shard's serving counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The fleet device this shard is pinned to (always the default device
    /// in a single-device pool).
    pub device: DeviceId,
    /// Requests accepted (routed and enqueued) by this shard.
    pub submitted: u64,
    /// Requests fully resolved by this shard — served, failed, expired,
    /// evicted or device-failed. Every resolution counts as completed so
    /// drain/shutdown never hang on any of them.
    pub completed: u64,
    /// Requests served successfully (a response, not an error). With one
    /// bounded retry per request, `served + failed + expired + shed +
    /// (device_failures - retried) == completed` exactly: a request whose
    /// retry is exhausted resolves to [`ServingError::DeviceFailed`], lands
    /// in none of the first four, and counts twice in `device_failures` and
    /// once in `retried`.
    pub served: u64,
    /// Requests dropped by a worker panic mid-serve; each one resolved its
    /// ticket to [`ServingError::WorkerDied`]. Always `<= completed`.
    pub failed: u64,
    /// Admitted requests whose deadline passed while queued: shed at
    /// dequeue (never executed), resolved to
    /// [`ServingError::DeadlineExceeded`].
    pub expired: u64,
    /// Admitted requests evicted from this shard's queue by a
    /// higher-priority arrival under [`ShedPolicy::DropLowestPriority`];
    /// resolved to [`ServingError::Shed`].
    pub shed: u64,
    /// Execution attempts on this shard that hit a dead device (a
    /// [`seer_gpu::DeviceFailed`] from the engine). A request that fails,
    /// retries and fails again counts twice.
    pub device_failures: u64,
    /// Requests that were retried once after their first attempt died on a
    /// failed device.
    pub retried: u64,
    /// Requests served successfully by this shard while its pinned device
    /// was no longer live — drained backlog and retried work that migrated
    /// to a surviving device.
    pub migrated: u64,
}

impl ShardStats {
    /// Requests accepted but not yet resolved.
    pub fn queue_depth(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }
}

/// Per-device rollup of a fleet pool's counters: the shards pinned to one
/// device, summed, so the balance identity on [`ShardStats::served`] holds
/// for each lane too, plus the pool engine's counters for the device. Built
/// by [`PoolStats::devices`]. `Default` is the empty lane of the default
/// device: all counters zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DevicePoolStats {
    /// The device this lane serves.
    pub device: DeviceId,
    /// Number of shards pinned to the device.
    pub shards: usize,
    /// Requests routed to the device's shard group.
    pub submitted: u64,
    /// Requests resolved (served, failed, expired, evicted or
    /// device-failed) by the device's shard group.
    pub completed: u64,
    /// Requests served successfully across the device's shards.
    pub served: u64,
    /// Requests dropped by worker panics across the device's shards.
    /// Requests whose bounded device retry was exhausted are not included.
    pub failed: u64,
    /// Deadline-expired requests shed at dequeue across the device's
    /// shards.
    pub expired: u64,
    /// Queued requests evicted by higher-priority arrivals across the
    /// device's shards.
    pub shed: u64,
    /// Dead-device execution attempts across the device's shards.
    pub device_failures: u64,
    /// Requests retried once across the device's shards.
    pub retried: u64,
    /// Requests served by this device's shards after the device stopped
    /// being live (drained/migrated work).
    pub migrated: u64,
    /// The pool engine's device-attributable counters for this device
    /// ([`SeerEngine::device_stats`]): hits and misses of the selections it
    /// placed here, and the preparations, evictions and resident bytes of
    /// its prepared plans for this device. Work shared across devices
    /// (profile passes, feature collections) is only in
    /// [`PoolStats::engine`].
    pub engine: EngineStats,
}

impl DevicePoolStats {
    /// Requests accepted by this device's shards but not yet served.
    pub fn queue_depth(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }

    /// Fraction of this device lane's resolved requests that failed, in
    /// `[0, 1]`. `0.0` when nothing has resolved yet — never `NaN`.
    pub fn failure_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.failed as f64 / self.completed as f64
        }
    }
}

/// Front-door counters of a pool snapshot. All zero on a pool built
/// without [`AdmissionConfig`] (except `shed_closed`, which also counts
/// submits refused by a shutdown race on an uncontrolled pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionPoolStats {
    /// Whether the pool was built with an [`AdmissionConfig`].
    pub enabled: bool,
    /// Requests refused at admission because the chosen shard's bounded
    /// queue was full (non-blocking submits).
    pub shed_queue_full: u64,
    /// Requests refused at admission by the pool-wide in-flight cap
    /// (non-blocking submits).
    pub shed_in_flight: u64,
    /// Blocking submits that gave up after their backpressure timeout.
    pub shed_timeout: u64,
    /// Requests refused because the pool was shutting down.
    pub shed_closed: u64,
    /// Admitted requests evicted from a queue by a higher-priority arrival
    /// — the sum of [`ShardStats::shed`].
    pub evicted: u64,
    /// Admitted requests whose deadline passed while queued — the sum of
    /// [`ShardStats::expired`].
    pub expired: u64,
    /// Blocking submits that had to wait for capacity at least once before
    /// admission (or before timing out).
    pub backpressure_waits: u64,
    /// Requests admitted but not yet resolved when the snapshot was taken.
    pub in_flight: u64,
}

impl AdmissionPoolStats {
    /// Everything the front door refused or revoked: unticketed refusals
    /// (`shed_queue_full + shed_in_flight + shed_timeout + shed_closed`)
    /// plus post-admission evictions. Deadline expiries are *not* included
    /// — they are deadline misses, not load shedding.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            .saturating_add(self.shed_in_flight)
            .saturating_add(self.shed_timeout)
            .saturating_add(self.shed_closed)
            .saturating_add(self.evicted)
    }

    /// The refusals that never produced a ticket — everything in
    /// `shed_total` except evictions, which had been admitted first.
    pub fn unticketed(&self) -> u64 {
        self.shed_queue_full
            .saturating_add(self.shed_in_flight)
            .saturating_add(self.shed_timeout)
            .saturating_add(self.shed_closed)
    }
}

/// Routing-offload and micro-batching counters of a pool snapshot
/// ([`PoolStats::routing`]). All zero on a pool built without
/// [`RoutingConfig`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingPoolStats {
    /// Whether the pool was built with a [`RoutingConfig`].
    pub enabled: bool,
    /// Requests routed and forwarded to a shard by the dedicated
    /// routing worker (instead of on the submitter thread).
    pub routed_async: u64,
    /// Non-blocking submits refused because the bounded routing stage was
    /// full ([`ShedReason::RoutingStageFull`]).
    pub shed_stage_full: u64,
    /// Ticketed requests still in the routing stage when shutdown began;
    /// each resolved its ticket to [`ServingError::PoolClosed`].
    pub stage_closed: u64,
    /// Requests served as part of a coalesced same-fingerprint run of two
    /// or more.
    pub batched_requests: u64,
    /// Coalesced runs of two or more requests — each cost one selection
    /// resolve and one plan pin for the whole run.
    pub batch_activations: u64,
    /// Requests sitting in the routing stage when the snapshot was taken.
    pub in_stage: u64,
    /// Submitter-thread latency of accepted submits (admission + stage
    /// enqueue; the routing itself happens off-thread).
    pub submit: HistogramSnapshot,
}

impl RoutingPoolStats {
    /// Mean size of coalesced runs (`0.0` before the first batch forms —
    /// never `NaN`). Only runs of two or more count; a pool that never
    /// coalesces reports `0.0`.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_activations == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batch_activations as f64
        }
    }
}

/// Aggregate snapshot of a [`ServingPool`]. `Default` is the snapshot of a
/// pool with no shards and no traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Counters of a separate router engine. The pool has none — its one
    /// engine routes every request, and those counters, routing selections
    /// included, are [`PoolStats::engine`] — so this is always `None`.
    pub router: Option<EngineStats>,
    /// The pool engine's counters ([`SeerEngine::stats`]).
    engine: EngineStats,
    /// The pool engine's per-device counters ([`SeerEngine::device_stats`]),
    /// indexed by [`DeviceId`].
    device_engines: Vec<EngineStats>,
    /// Front-door admission counters; all zero without admission control.
    pub admission: AdmissionPoolStats,
    /// Routing-offload and micro-batching counters; all zero without
    /// [`RoutingConfig`].
    pub routing: RoutingPoolStats,
    /// Queue-wait and end-to-end latency distributions per priority class.
    pub latency: LatencySnapshot,
    /// Wall-clock time since the pool was created.
    pub elapsed: Duration,
}

impl PoolStats {
    /// Per-device rollups, in device order: each entry sums the shards
    /// pinned to that device, so the entries partition the pool and their
    /// sums equal the aggregate counters. Each lane's engine counters are
    /// the pool engine's for that device.
    pub fn devices(&self) -> Vec<DevicePoolStats> {
        let mut lanes: Vec<DevicePoolStats> = Vec::new();
        for shard in &self.shards {
            let lane = match lanes.iter_mut().find(|lane| lane.device == shard.device) {
                Some(lane) => lane,
                None => {
                    lanes.push(DevicePoolStats {
                        device: shard.device,
                        engine: self
                            .device_engines
                            .get(shard.device.index())
                            .copied()
                            .unwrap_or_default(),
                        ..DevicePoolStats::default()
                    });
                    lanes.last_mut().expect("just pushed")
                }
            };
            lane.shards += 1;
            lane.submitted = lane.submitted.saturating_add(shard.submitted);
            lane.completed = lane.completed.saturating_add(shard.completed);
            lane.served = lane.served.saturating_add(shard.served);
            lane.failed = lane.failed.saturating_add(shard.failed);
            lane.expired = lane.expired.saturating_add(shard.expired);
            lane.shed = lane.shed.saturating_add(shard.shed);
            lane.device_failures = lane.device_failures.saturating_add(shard.device_failures);
            lane.retried = lane.retried.saturating_add(shard.retried);
            lane.migrated = lane.migrated.saturating_add(shard.migrated);
        }
        lanes.sort_by_key(|lane| lane.device);
        lanes
    }

    /// Total requests accepted across all shards.
    pub fn submitted(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.submitted))
    }

    /// Total requests served across all shards.
    pub fn completed(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.completed))
    }

    /// Total requests served successfully across all shards.
    pub fn served(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.served))
    }

    /// Total requests dropped by worker panics across all shards. A
    /// request whose bounded device retry is exhausted is not counted here:
    /// it is the `device_failures() - retried()` term of the balance
    /// identity on [`ShardStats::served`].
    pub fn failed(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.failed))
    }

    /// Total admitted requests whose deadline passed while queued.
    pub fn expired(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.expired))
    }

    /// Everything the front door refused or revoked — see
    /// [`AdmissionPoolStats::shed_total`] — plus routing-stage refusals
    /// and in-stage requests revoked by shutdown.
    pub fn shed(&self) -> u64 {
        self.admission
            .shed_total()
            .saturating_add(self.routing.shed_stage_full)
            .saturating_add(self.routing.stage_closed)
    }

    /// Blocking submits that waited for capacity at least once.
    pub fn backpressure_waits(&self) -> u64 {
        self.admission.backpressure_waits
    }

    /// Requests ever offered to the front door: admitted plus refused
    /// before ticketing, plus routed requests that never reached a shard
    /// (shed at a full routing stage, or caught in-stage by shutdown).
    pub fn offered(&self) -> u64 {
        self.submitted()
            .saturating_add(self.admission.unticketed())
            .saturating_add(self.routing.shed_stage_full)
            .saturating_add(self.routing.stage_closed)
    }

    /// Fraction of offered requests the front door shed, in `[0, 1]`.
    /// `0.0` when nothing was offered yet — never `NaN`.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed() as f64 / offered as f64
        }
    }

    /// Total dead-device execution attempts across all shards.
    pub fn device_failures(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.device_failures))
    }

    /// Total requests retried once after a dead-device attempt.
    pub fn retried(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.retried))
    }

    /// Total requests served by a shard whose pinned device was no longer
    /// live — drained backlog and retried work re-homed onto survivors.
    pub fn migrations(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.migrated))
    }

    /// Fraction of resolved requests that failed, in `[0, 1]`. `0.0` when
    /// nothing has resolved yet — never `NaN`.
    pub fn failure_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.failed() as f64 / completed as f64
        }
    }

    /// Fraction of resolved requests that needed the bounded device retry,
    /// in `[0, 1]`. `0.0` when nothing has resolved yet — never `NaN`.
    pub fn retry_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.retried() as f64 / completed as f64
        }
    }

    /// Fraction of resolved requests that were served off their submission
    /// device, in `[0, 1]`. `0.0` when nothing has resolved yet — never
    /// `NaN`.
    pub fn migration_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.migrations() as f64 / completed as f64
        }
    }

    /// Total requests accepted but not yet served.
    pub fn queue_depth(&self) -> u64 {
        self.submitted().saturating_sub(self.completed())
    }

    /// Counters of the pool engine: one selection per routed request (plus
    /// one per re-selected run), and every worker's plan preparations.
    pub fn engine(&self) -> EngineStats {
        self.engine
    }

    /// Served requests per second of pool lifetime.
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / secs
        }
    }
}

/// A routed job: the request, the responder that resolves its ticket, and
/// what routing decided for it — once per request, on whichever thread
/// routed it ([`route_and_push`]).
struct Job {
    request: ServingRequest,
    responder: Responder,
    /// When the routing stage accepted the ticket, on a routed pool; `None`
    /// on an inline pool, where the shard push is the acceptance.
    staged: Option<Instant>,
    /// When the job entered its shard queue: the zero point of its
    /// queue-wait sample, and of its end-to-end sample if it was never
    /// staged.
    queued: Instant,
    /// The matrix's sparsity fingerprint: the home shard within the device
    /// group, and the dequeue-time batching probe's first key.
    fingerprint: u64,
    /// The selection resolved on the pool engine; its device picks the
    /// shard group.
    selection: Selection,
    /// The selection overhead that resolve incurred, billed to this job's
    /// execution: the miss for the first admitted request of a plan key,
    /// zero for the rest.
    charge: SimTime,
}

/// An admitted request waiting in the routing stage, not yet routed.
struct Staged {
    request: ServingRequest,
    responder: Responder,
    /// When the stage accepted the ticket.
    at: Instant,
}

/// Parks on `condvar` until `poll` yields a value or `deadline` (if any)
/// passes; `None` means the wait timed out. `poll` runs under the lock
/// before every sleep, so a notify between the check and the sleep is never
/// lost and a spurious wake just polls again.
fn wait_for<'a, T, R>(
    condvar: &Condvar,
    mut guard: MutexGuard<'a, T>,
    deadline: Option<Instant>,
    mut poll: impl FnMut(&mut T) -> Option<R>,
) -> (MutexGuard<'a, T>, Option<R>) {
    loop {
        if let Some(ready) = poll(&mut guard) {
            return (guard, Some(ready));
        }
        guard = match deadline {
            None => condvar.wait(guard).unwrap_or_else(PoisonError::into_inner),
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    return (guard, None);
                }
                condvar
                    .wait_timeout(guard, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
    }
}

/// One shard's queue: three priority lanes behind one mutex, a bound
/// enforced by the push side, and two condvars — `available` wakes the
/// worker on push/close, `space` wakes backpressured pushers on pop/close.
#[derive(Default)]
struct ShardQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    space: Condvar,
}

#[derive(Default)]
struct QueueState {
    /// One FIFO lane per [`Priority`], indexed by [`Priority::lane`]; the
    /// worker always drains the lowest-index non-empty lane first.
    lanes: [VecDeque<Job>; 3],
    /// Closed by shutdown or this shard's device retirement: pushes are
    /// refused and the worker exits once the lanes are empty.
    closed: bool,
    /// Pushers currently parked on `space`; the worker skips the notify
    /// syscall when nobody waits.
    space_waiters: usize,
}

impl QueueState {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

impl ShardQueue {
    /// Marks the queue closed and wakes the worker (to drain and exit) and
    /// every backpressured pusher (to re-route or shed). Idempotent.
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
        self.space.notify_all();
    }

    /// Worker-side blocking pop: fills `run` with the highest-priority
    /// queued job plus up to `max_batch - 1` *immediately following* jobs
    /// from the same lane that are batch-compatible with it ([`batchable`]).
    /// Returns `false` once the queue is closed *and* empty (close-then-drain
    /// semantics).
    ///
    /// Runs form only here, at dequeue: nothing queued is ever committed to
    /// a run, so an eviction or a deadline expiry of a queued
    /// would-be-batchmate needs no special casing.
    fn pop_run(&self, run: &mut Vec<Job>, max_batch: usize) -> bool {
        run.clear();
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut state, _) = wait_for(&self.available, state, None, |state| {
            (state.closed || state.len() > 0).then_some(())
        });
        let Some(lane) = state.lanes.iter_mut().find(|lane| !lane.is_empty()) else {
            return false;
        };
        run.push(lane.pop_front().expect("lane is non-empty"));
        while run.len() < max_batch && lane.front().is_some_and(|next| batchable(&run[0], next)) {
            run.push(lane.pop_front().expect("lane is non-empty"));
        }
        if state.space_waiters > 0 {
            self.space.notify_all();
        }
        true
    }

    /// Parks a backpressured pusher until the queue has room below
    /// `capacity`, closes, or `deadline` passes. Returns `false` only on
    /// timeout; room and a close both mean "route and push again".
    fn wait_for_space(&self, capacity: usize, deadline: Option<Instant>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.space_waiters += 1;
        let (mut state, ready) = wait_for(&self.space, state, deadline, |state| {
            (state.closed || state.len() < capacity).then_some(())
        });
        state.space_waiters -= 1;
        ready.is_some()
    }
}

/// Whether two adjacent queued jobs may share one plan activation: same
/// workload kind (select-only with select-only, execute with execute —
/// never the chaos workloads), same sparsity fingerprint, workload length
/// and policy (the selection-plan cache key), the same routed selection,
/// and the same matrix *content* (`Arc` identity, or equal content
/// fingerprints for distinct handles — the value check matters because an
/// ELL prepared plan embeds value bits). Execute batchmates may carry
/// different input vectors `x`; the activated plan is input-independent.
fn batchable(head: &Job, next: &Job) -> bool {
    let kind_compatible = matches!(
        (&head.request.workload, &next.request.workload),
        (Workload::SelectOnly, Workload::SelectOnly)
            | (Workload::Execute { .. }, Workload::Execute { .. })
    );
    kind_compatible
        && head.fingerprint == next.fingerprint
        && head.request.iterations == next.request.iterations
        && head.request.policy == next.request.policy
        && head.selection == next.selection
        && (Arc::ptr_eq(&head.request.matrix, &next.request.matrix)
            || head.request.matrix.content_fingerprint()
                == next.request.matrix.content_fingerprint())
}

/// The bounded submit-side stage of a routing-offloaded pool: submitters
/// push admitted requests here in O(1), and the routing worker pops them
/// and routes and pushes each one to a shard. Same condvar discipline as
/// [`ShardQueue`].
#[derive(Default)]
struct RoutingStage {
    state: Mutex<StageState>,
    available: Condvar,
    space: Condvar,
    /// Maximum queued jobs (`0` = unbounded), from
    /// [`RoutingConfig::stage_capacity`].
    capacity: usize,
    /// Jobs pushed but not yet forwarded (or resolved) by the routing
    /// worker — the stage's contribution to the pool's pending count.
    in_stage: AtomicU64,
}

#[derive(Default)]
struct StageState {
    jobs: VecDeque<Staged>,
    closed: bool,
    space_waiters: usize,
}

impl RoutingStage {
    /// Submitter-side push: O(1), no routing work. Accepting the request
    /// stamps its admission. A full stage sheds or waits for space as `wait`
    /// says; a closed one hands the responder back with
    /// [`ShedReason::PoolClosed`].
    fn push(
        &self,
        request: ServingRequest,
        responder: Responder,
        wait: &mut Wait<'_>,
    ) -> Result<(), (Responder, ShedReason)> {
        let capacity = self.capacity;
        let has_room = |state: &mut StageState| {
            (state.closed || capacity == 0 || state.jobs.len() < capacity).then_some(())
        };
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if has_room(&mut state).is_none() {
            if !wait.block {
                return Err((responder, ShedReason::RoutingStageFull));
            }
            wait.note();
            state.space_waiters += 1;
            let ready;
            (state, ready) = wait_for(&self.space, state, wait.deadline, has_room);
            state.space_waiters -= 1;
            if ready.is_none() {
                return Err((responder, ShedReason::BackpressureTimeout));
            }
        }
        if state.closed {
            return Err((responder, ShedReason::PoolClosed));
        }
        state.jobs.push_back(Staged {
            request,
            responder,
            at: Instant::now(),
        });
        self.in_stage.fetch_add(1, Ordering::SeqCst);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Routing-worker-side blocking pop; `None` once the stage is closed
    /// *and* empty, so a shutdown still drains every in-stage job through
    /// the worker (which resolves each one typed).
    fn pop(&self) -> Option<Staged> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut state, _) = wait_for(&self.available, state, None, |state| {
            (state.closed || !state.jobs.is_empty()).then_some(())
        });
        let job = state.jobs.pop_front()?;
        if state.space_waiters > 0 {
            self.space.notify_all();
        }
        Some(job)
    }

    /// Marks the stage closed and wakes the routing worker (to drain and
    /// exit) and every backpressured submitter. Idempotent.
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
        self.space.notify_all();
    }
}

/// The routing and batching counters behind [`RoutingPoolStats`]. All zero,
/// with `max_batch == 1`, on a pool built without [`RoutingConfig`].
struct RoutingShared {
    /// Per-dequeue run bound, clamped to at least 1.
    max_batch: usize,
    routed_async: AtomicU64,
    shed_stage_full: AtomicU64,
    stage_closed: AtomicU64,
    batched_requests: AtomicU64,
    batch_activations: AtomicU64,
    /// Submitter-thread latency of accepted submits.
    submit: AtomicHistogram,
}

impl RoutingShared {
    fn new(config: Option<RoutingConfig>) -> Self {
        Self {
            max_batch: config.map_or(1, |c| c.max_batch.max(1)),
            routed_async: AtomicU64::new(0),
            shed_stage_full: AtomicU64::new(0),
            stage_closed: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batch_activations: AtomicU64::new(0),
            submit: AtomicHistogram::new(),
        }
    }
}

/// The pool-wide front door: the admission config and the exact counters
/// behind [`AdmissionPoolStats`]. A pool built without admission control
/// runs `AdmissionConfig::bounded(0)`: unbounded queues, no in-flight cap.
#[derive(Default)]
struct FrontDoor {
    config: AdmissionConfig,
    /// Admitted requests not yet resolved; a cap only when
    /// [`AdmissionConfig::max_in_flight`] is set.
    in_flight: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_in_flight: AtomicU64,
    shed_timeout: AtomicU64,
    shed_closed: AtomicU64,
    backpressure_waits: AtomicU64,
}

impl FrontDoor {
    /// Tries to take one in-flight slot; without a cap the gauge just
    /// increments and admission always succeeds.
    fn reserve_in_flight(&self) -> bool {
        let cap = self.config.max_in_flight as u64;
        if cap == 0 {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }
}

/// How one placement treats a full queue: shed at once, or (`block`) wait
/// for space until `deadline` (`None` waits forever).
struct Wait<'a> {
    block: bool,
    deadline: Option<Instant>,
    /// The backpressure counter, until this admission counts its one wait;
    /// `None` for the routing worker, whose waits are not a submitter's.
    uncounted: Option<&'a AtomicU64>,
}

impl Wait<'_> {
    /// Counts the first backpressure wait of one admission.
    fn note(&mut self) {
        if let Some(waits) = self.uncounted.take() {
            waits.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Drain and capacity-wait coordination: workers notify after a completion
/// only when someone is parked, so the common serving path pays one atomic
/// load, not a mutex round-trip per request.
///
/// `waiters` and the completion counters are all `SeqCst` so a worker's
/// "completed, is anyone waiting?" and a waiter's "waiting, is anything
/// pending?" cannot both read stale values: one of them always observes the
/// other, which rules out a sleep with nothing left to wake it.
#[derive(Default)]
struct Progress {
    lock: Mutex<()>,
    served: Condvar,
    waiters: AtomicU64,
}

impl Progress {
    /// Parks until `poll` yields or `deadline` passes (`None` on timeout).
    /// The waiter registers itself before its first poll, per the type
    /// docs.
    fn wait<R>(&self, deadline: Option<Instant>, mut poll: impl FnMut() -> Option<R>) -> Option<R> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let ready = wait_for(&self.served, guard, deadline, |_| poll()).1;
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        ready
    }

    /// Wakes any parked drain or capacity waiter. Taking the lock before
    /// notifying pairs with [`Progress::wait`] holding it across its poll,
    /// so no wake-up is ever missed.
    fn notify(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.served.notify_all();
        }
    }
}

/// One shard's resolution counters; see [`ShardStats`] for their balance.
#[derive(Debug, Default)]
struct ShardCounters {
    completed: AtomicU64,
    served: AtomicU64,
    /// Requests dropped by a panic mid-serve.
    failed: AtomicU64,
    /// Deadline-expired requests shed at dequeue.
    expired: AtomicU64,
    /// Queued requests evicted by higher-priority arrivals.
    shed: AtomicU64,
    /// Execution attempts that returned [`DeviceFailed`].
    device_failures: AtomicU64,
    /// Requests retried once after a dead-device first attempt.
    retried: AtomicU64,
    /// Requests served while the shard's pinned device was not live.
    migrated: AtomicU64,
}

/// One shard: a worker's queue and counters, pinned to a device, shared by
/// the pool core and the shard's worker thread.
struct Shard {
    index: usize,
    /// The fleet device this shard is pinned to: device-affinity routing
    /// only sends it requests whose selection placed the workload here.
    device: DeviceId,
    /// Closed (never dropped) by shutdown or this shard's device
    /// retirement; the worker drains the backlog and exits.
    queue: ShardQueue,
    /// Requests pushed onto the queue.
    submitted: AtomicU64,
    counters: ShardCounters,
}

impl Shard {
    /// Requests pushed onto this shard and not yet resolved: its load, for
    /// routing, and its share of the pool's pending count.
    fn pending(&self) -> u64 {
        self.submitted
            .load(Ordering::SeqCst)
            .saturating_sub(self.counters.completed.load(Ordering::SeqCst))
    }
}

/// The membership-mutable part of a pool: the shards, their worker threads
/// and the per-device shard groups. One `RwLock` guards all three, so
/// routing reads a consistent snapshot while [`ServingPool::add_device`] /
/// [`ServingPool::retire_device`] mutate membership under the write side.
#[derive(Default)]
struct PoolInner {
    /// Append-only, like the fleet roster, so shard indices in issued
    /// tickets stay valid.
    shards: Vec<Arc<Shard>>,
    /// Each shard's worker, by shard index; taken and joined by a retire of
    /// its device or by shutdown.
    workers: Vec<Option<JoinHandle<()>>>,
    /// Shard indices pinned to each device, indexed by [`DeviceId`]. A
    /// retired device's group is emptied in place, so indexing by device id
    /// keeps working.
    device_groups: Vec<Vec<usize>>,
}

/// What the pool handle, the routing worker and every shard worker share,
/// through one `Arc`.
struct PoolCore {
    inner: RwLock<PoolInner>,
    /// The pool engine: routing selects every request on it, and every
    /// worker executes its prepared plans.
    engine: SeerEngine,
    progress: Progress,
    front_door: FrontDoor,
    routing: RoutingShared,
    /// The bounded submit-side stage, present only with [`RoutingConfig`].
    stage: Option<RoutingStage>,
    latency: LatencyRecorder,
    /// Set by shutdown: a push refused by a closed queue then sheds typed
    /// instead of re-routing.
    closing: AtomicBool,
}

impl PoolCore {
    /// Requests accepted but not yet resolved: the shard deltas plus the
    /// jobs still in the routing stage, so a drain cannot slip past work
    /// the routing worker has not forwarded yet.
    fn pending(&self) -> u64 {
        // Read the stage gauge *before* the shard deltas: a job leaving the
        // stage increments its shard's `submitted` first, so whichever
        // interleaving this races, the job is visible on at least one side.
        let in_stage = self
            .stage
            .as_ref()
            .map_or(0, |stage| stage.in_stage.load(Ordering::SeqCst));
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner
            .shards
            .iter()
            .fold(in_stage, |n, shard| n.saturating_add(shard.pending()))
    }
}

/// A sharded, multi-threaded serving front-end for Seer selections — and,
/// over a multi-device [`Fleet`], a device-aware router with elastic
/// runtime membership.
///
/// See the [module docs](self) for the sharding, routing, determinism and
/// membership model.
pub struct ServingPool {
    /// The construction config, kept so shards spawned by a runtime
    /// [`ServingPool::add_device`] match the original shards per device, and
    /// for the stats' `enabled` flags.
    config: PoolConfig,
    core: Arc<PoolCore>,
    /// The routing worker draining the stage, present only with
    /// [`RoutingConfig`]; joined by [`ServingPool::stop_workers`].
    routing_worker: Option<JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for ServingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPool")
            .field("shards", &self.shards())
            .finish_non_exhaustive()
    }
}

impl ServingPool {
    /// Builds a single-device pool: one engine over shared device and model
    /// handles, and `config.shards` worker threads.
    pub fn new(gpu: Arc<Gpu>, models: Arc<SeerModels>, config: PoolConfig) -> Self {
        Self::with_fleet(Fleet::single(gpu), models, config)
    }

    /// Builds a fleet pool: `config.shards` shards pinned to *each* fleet
    /// device (so `fleet.len() x config.shards` workers in total) and one
    /// engine over the whole fleet. Routing selects — and so places — every
    /// request on that engine, and every worker executes its prepared plans,
    /// so the selections the pool serves are identical to a sequential fleet
    /// engine's.
    pub fn with_fleet(fleet: Fleet, models: Arc<SeerModels>, config: PoolConfig) -> Self {
        let config = PoolConfig {
            shards: config.shards.max(1),
            ..config
        };
        let engine = SeerEngine::with_fleet(fleet, models);
        engine.set_structure_class_reuse(config.structure_class_reuse);
        engine.set_recalibration(config.recalibration);
        let core = Arc::new(PoolCore {
            inner: RwLock::default(),
            engine,
            progress: Progress::default(),
            front_door: FrontDoor {
                config: config.admission.unwrap_or(AdmissionConfig::bounded(0)),
                ..FrontDoor::default()
            },
            routing: RoutingShared::new(config.routing),
            stage: config.routing.map(|routing| RoutingStage {
                capacity: routing.stage_capacity,
                ..RoutingStage::default()
            }),
            latency: LatencyRecorder::new(),
            closing: AtomicBool::new(false),
        });
        let routing_worker = core.stage.is_some().then(|| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("seer-routing".into())
                .spawn(move || routing_worker_loop(&core))
                .expect("spawn routing worker")
        });
        let pool = Self {
            config,
            core,
            routing_worker,
            started: Instant::now(),
        };
        for device in pool.fleet().ids() {
            pool.attach_device(device);
        }
        pool
    }

    /// Joins a new device to the *running* pool: registers it with the
    /// fleet, then spawns [`PoolConfig::shards`] shards pinned to it. From
    /// then on the pool engine places fresh selections across the grown
    /// fleet; plans it already cached keep their placement, as on a
    /// standalone engine. In-flight submits race harmlessly: until the new
    /// shard group is published they route to the existing groups.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the device specification is invalid.
    pub fn add_device(&self, spec: GpuSpec) -> Result<DeviceId, SpecError> {
        let device = self.fleet().add_device(spec)?;
        self.attach_device(device);
        Ok(device)
    }

    /// [`ServingPool::add_device`] with an explicit name and prebuilt GPU
    /// model, mirroring [`Fleet::add_device_named`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the device specification is invalid.
    pub fn add_device_named(
        &self,
        name: impl Into<String>,
        gpu: Arc<Gpu>,
    ) -> Result<DeviceId, SpecError> {
        let device = self.fleet().add_device_named(name, gpu)?;
        self.attach_device(device);
        Ok(device)
    }

    /// Spawns and publishes the shards of a device already registered with
    /// the fleet.
    fn attach_device(&self, device: DeviceId) {
        let mut inner = self
            .core
            .inner
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if inner.device_groups.len() <= device.index() {
            inner.device_groups.resize(device.index() + 1, Vec::new());
        }
        for _ in 0..self.config.shards {
            let index = inner.shards.len();
            let shard = Arc::new(Shard {
                index,
                device,
                queue: ShardQueue::default(),
                submitted: AtomicU64::new(0),
                counters: ShardCounters::default(),
            });
            let worker = {
                let (core, shard) = (Arc::clone(&self.core), Arc::clone(&shard));
                std::thread::Builder::new()
                    .name(format!("seer-shard-{index}"))
                    .spawn(move || worker_loop(&core, &shard))
                    .expect("spawn serving worker")
            };
            inner.device_groups[device.index()].push(index);
            inner.shards.push(shard);
            inner.workers.push(Some(worker));
        }
    }

    /// Retires a device from the running pool. The fleet marks it retired
    /// (new selections skip it), the pool engine drops the device's cached
    /// kernel costs, prepared plans and recalibration factors
    /// ([`SeerEngine::invalidate_device`]), the device's shard group is
    /// unpublished, and the group's queued backlog drains on its own
    /// workers — each queued request re-selects once onto a surviving
    /// device, counted in [`ShardStats::migrated`] — before this call
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns the fleet's [`MembershipError`] — unknown device, double
    /// retire, or retiring the last live device — without touching the pool.
    pub fn retire_device(&self, device: DeviceId) -> Result<(), MembershipError> {
        self.fleet().retire_device(device)?;
        // Narrow invalidation: queued work re-selects against the shrunken
        // live set.
        self.core.engine.invalidate_device(device);
        // Unpublish the group and close its queues under the write lock —
        // a submit that raced past routing either reached the queue before
        // this (its job drains below) or re-routes to survivors.
        let workers: Vec<JoinHandle<()>> = {
            let mut inner = self
                .core
                .inner
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let group = inner
                .device_groups
                .get_mut(device.index())
                .map(std::mem::take)
                .unwrap_or_default();
            group
                .into_iter()
                .filter_map(|index| {
                    inner.shards[index].queue.close();
                    inner.workers[index].take()
                })
                .collect()
        };
        // Joining outside the lock lets submit-side progress (stats, drain)
        // proceed while the group winds down.
        for worker in workers {
            join_worker(worker);
        }
        Ok(())
    }

    /// Builds a pool serving the same fleet and models as `engine` — a
    /// fleet-aware engine begets a fleet pool, a single-device engine a
    /// single-device pool.
    ///
    /// The pool builds its own engine over them; nothing already cached by
    /// `engine` is shared.
    pub fn from_engine(engine: &SeerEngine, config: PoolConfig) -> Self {
        Self::with_fleet(engine.fleet().clone(), engine.models_handle(), config)
    }

    /// Number of shards ever spawned, including the (drained, stopped)
    /// shards of retired devices — shard indices are append-only so ticket
    /// and stats indices stay valid across membership changes.
    pub fn shards(&self) -> usize {
        self.core
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .shards
            .len()
    }

    /// The device fleet this pool routes over.
    pub fn fleet(&self) -> &Fleet {
        self.core.engine.fleet()
    }

    /// Routes one request to a shard and returns a [`Ticket`] for the
    /// response. Never blocks on the serving work itself; without
    /// [`PoolConfig::with_routing`], first contact with a matrix additionally
    /// resolves its selection on the pool engine (cached thereafter).
    ///
    /// Under admission control ([`PoolConfig::with_admission`]) `submit`
    /// keeps its infallible signature by *blocking* when the pool is at
    /// capacity — backpressure, counted in
    /// [`AdmissionPoolStats::backpressure_waits`] — instead of shedding.
    /// Use [`ServingPool::try_submit`] for a non-blocking front door or
    /// [`ServingPool::submit_with_timeout`] to bound the wait. A submit
    /// racing [`ServingPool::begin_shutdown`]/[`ServingPool::shutdown`]
    /// returns an already-resolved ticket whose outcome is
    /// [`ServingError::PoolClosed`] (its [`Ticket::shard`] is
    /// `usize::MAX`: the request was never routed).
    ///
    /// # Panics
    ///
    /// Panics if a [`Workload::Execute`] request has `x.len() !=
    /// matrix.cols()`. Validating here keeps the precondition violation on
    /// the submitting thread — exactly where [`SeerEngine::execute`] would
    /// raise it — instead of killing a shard worker.
    pub fn submit(&self, request: ServingRequest) -> Ticket {
        match self.admit(request, true, None) {
            SubmitOutcome::Accepted(ticket) => ticket,
            SubmitOutcome::Shed { reason } => Self::refused_ticket(reason),
        }
    }

    /// Non-blocking admission: routes and enqueues the request if the pool
    /// has capacity, otherwise returns [`SubmitOutcome::Shed`] immediately
    /// with the typed [`ShedReason`]. On a pool without admission control
    /// the queues are unbounded, so this only sheds when the pool is
    /// shutting down.
    ///
    /// # Panics
    ///
    /// Like [`ServingPool::submit`], panics on a malformed
    /// [`Workload::Execute`] request.
    pub fn try_submit(&self, request: ServingRequest) -> SubmitOutcome {
        self.admit(request, false, None)
    }

    /// Blocking admission with a bounded backpressure wait: like
    /// [`ServingPool::submit`], but a request that cannot be admitted
    /// within `timeout` is shed with [`ShedReason::BackpressureTimeout`]
    /// instead of waiting forever.
    ///
    /// # Panics
    ///
    /// Like [`ServingPool::submit`], panics on a malformed
    /// [`Workload::Execute`] request.
    pub fn submit_with_timeout(&self, request: ServingRequest, timeout: Duration) -> SubmitOutcome {
        self.admit(request, true, Some(Instant::now() + timeout))
    }

    /// The admission path shared by every submit flavour. `block` decides
    /// whether capacity exhaustion sheds immediately or waits (`deadline`
    /// bounds the wait; `None` waits forever).
    fn admit(
        &self,
        request: ServingRequest,
        block: bool,
        deadline: Option<Instant>,
    ) -> SubmitOutcome {
        if let Workload::Execute { x } = &request.workload {
            assert_eq!(
                x.len(),
                request.matrix.cols(),
                "execute request needs x.len() == matrix.cols()"
            );
        }
        let core = &*self.core;
        if core.closing.load(Ordering::SeqCst) {
            return self.refuse(ShedReason::PoolClosed);
        }
        let door = &core.front_door;
        // One admission counts at most one backpressure wait, however many
        // brakes it waits on.
        let mut wait = Wait {
            block,
            deadline,
            uncounted: Some(&door.backpressure_waits),
        };
        if !door.reserve_in_flight() {
            if !block {
                return self.refuse(ShedReason::InFlightCap);
            }
            wait.note();
            let reserved = core.progress.wait(deadline, || {
                if core.closing.load(Ordering::SeqCst) {
                    Some(Err(ShedReason::PoolClosed))
                } else {
                    door.reserve_in_flight().then_some(Ok(()))
                }
            });
            if let Err(reason) = reserved.unwrap_or(Err(ShedReason::BackpressureTimeout)) {
                return self.refuse(reason);
            }
        }
        let cell = TicketCell::new();
        let responder = Responder {
            cell: Some(Arc::clone(&cell)),
            shard: 0,
        };
        let now = Instant::now();
        let placed = match &core.stage {
            // Routing offload: an O(1) push — no fingerprint hash, no
            // selection, no cache walk on this thread. The routing worker
            // places the job, so its ticket has no shard yet.
            Some(stage) => stage.push(request, responder, &mut wait).map(|()| {
                core.routing.submit.record(now.elapsed());
                usize::MAX
            }),
            None => route_and_push(core, request, responder, None, &mut wait),
        };
        match placed {
            Ok(shard) => SubmitOutcome::Accepted(Ticket {
                cell,
                shard,
                received: None,
            }),
            Err((responder, reason)) => self.abandon(responder, reason),
        }
    }

    /// Counts one front-door refusal and returns the shed outcome.
    fn refuse(&self, reason: ShedReason) -> SubmitOutcome {
        let door = &self.core.front_door;
        let counter = match reason {
            ShedReason::QueueFull { .. } => &door.shed_queue_full,
            ShedReason::InFlightCap => &door.shed_in_flight,
            ShedReason::BackpressureTimeout => &door.shed_timeout,
            ShedReason::RoutingStageFull => &self.core.routing.shed_stage_full,
            ShedReason::PoolClosed => &door.shed_closed,
            ShedReason::Evicted { .. } => {
                unreachable!("evictions revoke admitted requests, they are not refusals")
            }
        };
        counter.fetch_add(1, Ordering::SeqCst);
        SubmitOutcome::Shed { reason }
    }

    /// Sheds a job that had already reserved its in-flight slot but was
    /// never accepted: releases the slot, defuses its responder (the ticket
    /// was never handed out, so nothing must resolve it to `WorkerDied`)
    /// and counts the refusal.
    fn abandon(&self, mut responder: Responder, reason: ShedReason) -> SubmitOutcome {
        responder.cell = None;
        self.core
            .front_door
            .in_flight
            .fetch_sub(1, Ordering::SeqCst);
        self.refuse(reason)
    }

    /// A pre-resolved ticket for a refused blocking submit, keeping
    /// `submit`'s infallible signature: the shed reason arrives through the
    /// ticket's error instead. Never routed, so its shard is `usize::MAX`.
    fn refused_ticket(reason: ShedReason) -> Ticket {
        let error = match reason {
            ShedReason::PoolClosed => ServingError::PoolClosed,
            other => ServingError::Shed { reason: other },
        };
        let cell = TicketCell::new();
        cell.resolve(Err(error));
        Ticket {
            cell,
            shard: usize::MAX,
            received: None,
        }
    }

    /// Closes the front door and every shard queue without consuming the
    /// pool: new submits shed with [`ShedReason::PoolClosed`] / resolve to
    /// [`ServingError::PoolClosed`], already-admitted requests still drain,
    /// and workers exit after their backlog. On a routing-offloaded pool
    /// the stage closes too: requests still in the stage resolve their
    /// tickets to the typed [`ServingError::PoolClosed`] (counted in
    /// [`RoutingPoolStats::stage_closed`]) — never hang. Idempotent;
    /// [`ServingPool::shutdown`] calls it first.
    pub fn begin_shutdown(&self) {
        self.core.closing.store(true, Ordering::SeqCst);
        if let Some(stage) = &self.core.stage {
            stage.close();
        }
        for shard in &self
            .core
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .shards
        {
            shard.queue.close();
        }
    }

    /// Enqueues a batch of requests (in order) and returns their tickets in
    /// the same order. Requests for different shards proceed concurrently.
    pub fn submit_batch(&self, requests: impl IntoIterator<Item = ServingRequest>) -> Vec<Ticket> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Blocks until every accepted request has been served.
    pub fn drain(&self) {
        let core = &*self.core;
        core.progress
            .wait(None, || (core.pending() == 0).then_some(()));
    }

    /// Current per-shard and aggregate counters.
    pub fn stats(&self) -> PoolStats {
        let core = &*self.core;
        let inner = core.inner.read().unwrap_or_else(PoisonError::into_inner);
        let shards: Vec<ShardStats> = inner
            .shards
            .iter()
            .map(|shard| ShardStats {
                shard: shard.index,
                device: shard.device,
                submitted: shard.submitted.load(Ordering::Acquire),
                completed: shard.counters.completed.load(Ordering::Acquire),
                served: shard.counters.served.load(Ordering::Acquire),
                failed: shard.counters.failed.load(Ordering::Acquire),
                expired: shard.counters.expired.load(Ordering::Acquire),
                shed: shard.counters.shed.load(Ordering::Acquire),
                device_failures: shard.counters.device_failures.load(Ordering::Acquire),
                retried: shard.counters.retried.load(Ordering::Acquire),
                migrated: shard.counters.migrated.load(Ordering::Acquire),
            })
            .collect();
        drop(inner);
        let door = &core.front_door;
        let routing = &core.routing;
        PoolStats {
            router: None,
            engine: core.engine.stats(),
            device_engines: core.engine.device_stats(),
            admission: AdmissionPoolStats {
                enabled: self.config.admission.is_some(),
                shed_queue_full: door.shed_queue_full.load(Ordering::SeqCst),
                shed_in_flight: door.shed_in_flight.load(Ordering::SeqCst),
                shed_timeout: door.shed_timeout.load(Ordering::SeqCst),
                shed_closed: door.shed_closed.load(Ordering::SeqCst),
                evicted: shards.iter().fold(0, |n, s| n.saturating_add(s.shed)),
                expired: shards.iter().fold(0, |n, s| n.saturating_add(s.expired)),
                backpressure_waits: door.backpressure_waits.load(Ordering::SeqCst),
                in_flight: door.in_flight.load(Ordering::SeqCst),
            },
            routing: RoutingPoolStats {
                enabled: self.config.routing.is_some(),
                routed_async: routing.routed_async.load(Ordering::SeqCst),
                shed_stage_full: routing.shed_stage_full.load(Ordering::SeqCst),
                stage_closed: routing.stage_closed.load(Ordering::SeqCst),
                batched_requests: routing.batched_requests.load(Ordering::SeqCst),
                batch_activations: routing.batch_activations.load(Ordering::SeqCst),
                in_stage: core
                    .stage
                    .as_ref()
                    .map_or(0, |stage| stage.in_stage.load(Ordering::SeqCst)),
                submit: routing.submit.snapshot(),
            },
            shards,
            latency: core.latency.snapshot(),
            elapsed: self.started.elapsed(),
        }
    }

    /// Serves every accepted request, stops the workers, joins them and
    /// returns the final stats.
    pub fn shutdown(mut self) -> PoolStats {
        self.stop_workers();
        self.stats()
    }

    /// Graceful stop: closing each queue lets its worker finish the backlog
    /// and exit; joining guarantees no thread outlives the pool. Safe to
    /// run concurrently with a retire-drain — whichever side takes a worker
    /// handle first joins it.
    ///
    /// The routing stage winds down *first*, while the shard queues are
    /// still open: the routing worker routes every in-stage request to a
    /// shard (so a graceful [`ServingPool::shutdown`] still serves them),
    /// and only then do the shard queues close. After a
    /// [`ServingPool::begin_shutdown`] the shard queues are already closed
    /// and the drained jobs resolve typed [`ServingError::PoolClosed`]
    /// instead.
    fn stop_workers(&mut self) {
        self.core.closing.store(true, Ordering::SeqCst);
        if let Some(stage) = &self.core.stage {
            stage.close();
        }
        if let Some(worker) = self.routing_worker.take() {
            join_worker(worker);
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut inner = self
                .core
                .inner
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            for shard in &inner.shards {
                shard.queue.close();
            }
            inner.workers.iter_mut().filter_map(Option::take).collect()
        };
        for worker in workers {
            join_worker(worker);
        }
    }
}

impl Drop for ServingPool {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Joins one worker thread, re-raising its panic — unless this join itself
/// runs during an unwind, where a second panic would abort the process; the
/// original panic is already propagating, so let it.
fn join_worker(worker: JoinHandle<()>) {
    if worker.join().is_err() && !std::thread::panicking() {
        panic!("serving worker panicked");
    }
}

/// The routing function, applied under one read of the pool's `inner` lock:
/// the shard of `device`'s group with the fewest pending requests, ties
/// going to the home shard `fingerprint % group_size`, so an idle pool keeps
/// each matrix on one shard. If the group is gone (retired between
/// selection and routing), the first surviving group takes the job, and its
/// worker re-selects at dequeue.
fn route_in(inner: &PoolInner, fingerprint: u64, device: DeviceId) -> usize {
    let group = inner
        .device_groups
        .get(device.index())
        .filter(|group| !group.is_empty())
        .or_else(|| inner.device_groups.iter().find(|group| !group.is_empty()))
        .expect("the last live device cannot retire, so a shard group survives");
    let home = (fingerprint % group.len() as u64) as usize;
    (0..group.len())
        .map(|offset| group[(home + offset) % group.len()])
        .min_by_key(|&index| inner.shards[index].pending())
        .expect("shard groups are never empty")
}

/// What one push attempt against a shard queue produced. `Full` and
/// `Closed` hand the job back so the caller can wait, re-route or shed it.
enum PushAttempt {
    /// Queued — under [`ShedPolicy::DropLowestPriority`] by evicting the
    /// returned strictly-lower-priority victim, which the caller resolves
    /// outside the locks.
    Queued(Option<Job>),
    Full(Job),
    Closed(Job),
}

/// One push attempt against a shard's queue, under the caller's `inner`
/// read guard. Stamps the job's queue entry, the zero point of its
/// queue-wait sample.
fn push_job(shard: &Shard, mut job: Job, admission: &AdmissionConfig) -> PushAttempt {
    job.responder.shard = shard.index;
    let lane = job.request.priority.lane();
    let mut state = shard
        .queue
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if state.closed {
        return PushAttempt::Closed(job);
    }
    let mut victim = None;
    if admission.queue_capacity > 0 && state.len() >= admission.queue_capacity {
        // Drop-lowest-priority: evict the *newest* job of the lowest class
        // strictly below the newcomer — the request that has waited least
        // in the most sheddable lane.
        if admission.shed_policy == ShedPolicy::DropLowestPriority {
            victim = state
                .lanes
                .iter_mut()
                .enumerate()
                .rev()
                .find(|(index, queue)| *index > lane && !queue.is_empty())
                .and_then(|(_, queue)| queue.pop_back());
        }
        if victim.is_none() {
            return PushAttempt::Full(job);
        }
    }
    job.queued = Instant::now();
    // Counted before the worker can see the job, so `completed` never
    // overtakes `submitted`.
    shard.submitted.fetch_add(1, Ordering::SeqCst);
    state.lanes[lane].push_back(job);
    drop(state);
    shard.queue.available.notify_one();
    PushAttempt::Queued(victim)
}

/// Routes one admitted request and pushes it; returns the shard's index.
/// The request's selection is resolved and billed on the pool engine once,
/// here, in admission order, and travels with the job. A queue closed by a
/// retire re-routes to the survivors (the retire unpublished the group in
/// the critical section that closed its queues); one closed by shutdown
/// hands the job back with [`ShedReason::PoolClosed`]. A full queue evicts
/// under [`ShedPolicy::DropLowestPriority`], then sheds or waits for space
/// as `wait` says. Both `admit` (on the submitter's thread) and the routing
/// worker place jobs through here.
///
/// Holding the `inner` read guard across the push is the no-lost-ticket
/// guarantee: a group cannot be unpublished between routing to it and
/// landing in its queue.
fn route_and_push(
    core: &PoolCore,
    request: ServingRequest,
    responder: Responder,
    staged: Option<Instant>,
    wait: &mut Wait<'_>,
) -> Result<usize, (Responder, ShedReason)> {
    let admission = &core.front_door.config;
    let (selection, charge) =
        core.engine
            .select_with_policy_charged(&request.matrix, request.iterations, request.policy);
    let mut job = Job {
        fingerprint: request.matrix.sparsity_fingerprint(),
        request,
        responder,
        staged,
        queued: Instant::now(),
        selection,
        charge,
    };
    loop {
        let (shard, attempt) = {
            let inner = core.inner.read().unwrap_or_else(PoisonError::into_inner);
            let shard = &inner.shards[route_in(&inner, job.fingerprint, job.selection.device)];
            (Arc::clone(shard), push_job(shard, job, admission))
        };
        match attempt {
            PushAttempt::Queued(victim) => {
                if let Some(victim) = victim {
                    // The victim was admitted (it counted as submitted), so
                    // the eviction completes it, counted shed.
                    victim.responder.resolve(Err(ServingError::Shed {
                        reason: ShedReason::Evicted { shard: shard.index },
                    }));
                    shard.counters.shed.fetch_add(1, Ordering::SeqCst);
                    finish_job(core, &shard.counters);
                }
                return Ok(shard.index);
            }
            PushAttempt::Full(returned) => {
                job = returned;
                if !wait.block {
                    return Err((job.responder, ShedReason::QueueFull { shard: shard.index }));
                }
                wait.note();
                if !shard
                    .queue
                    .wait_for_space(admission.queue_capacity, wait.deadline)
                {
                    return Err((job.responder, ShedReason::BackpressureTimeout));
                }
            }
            PushAttempt::Closed(returned) => {
                job = returned;
                if core.closing.load(Ordering::SeqCst) {
                    return Err((job.responder, ShedReason::PoolClosed));
                }
            }
        }
    }
}

/// The dedicated routing worker: pops admitted requests off the stage and
/// routes and pushes each one like an inline submit (the submit path never
/// hashed or selected it). Exits once the stage is closed *and* drained.
fn routing_worker_loop(core: &PoolCore) {
    let Some(stage) = &core.stage else {
        return;
    };
    // A staged job holds an issued ticket: the worker waits out a full shard
    // queue instead of shedding, and does not count a submitter's wait.
    let mut wait = Wait {
        block: true,
        deadline: None,
        uncounted: None,
    };
    while let Some(staged) = stage.pop() {
        match route_and_push(
            core,
            staged.request,
            staged.responder,
            Some(staged.at),
            &mut wait,
        ) {
            Ok(_) => {
                core.routing.routed_async.fetch_add(1, Ordering::SeqCst);
            }
            // Without a deadline only shutdown refuses: resolve the ticket
            // typed and release the slot admission reserved.
            Err((responder, _)) => {
                responder.resolve(Err(ServingError::PoolClosed));
                core.routing.stage_closed.fetch_add(1, Ordering::SeqCst);
                core.front_door.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // After the shard's `submitted` bump inside the push, so the pool's
        // pending count never dips while the job changes hands. The shard
        // may have served the job already, making this the decrement that
        // empties the pool: wake any parked drain.
        stage.in_stage.fetch_sub(1, Ordering::SeqCst);
        core.progress.notify();
    }
}

/// One shard's serve loop: pops runs until its queue is closed and drained.
/// The worker owns one [`EngineWorkspace`] for its whole lifetime, so the
/// execute hot path reuses the same output and scratch buffers across every
/// request the shard serves.
fn worker_loop(core: &PoolCore, shard: &Shard) {
    let mut workspace = EngineWorkspace::new();
    let mut run = Vec::new();
    while shard.queue.pop_run(&mut run, core.routing.max_batch) {
        serve_dequeued(core, shard, &mut run, &mut workspace);
    }
}

/// Whether a request's deadline has passed (a deadline-free request never
/// expires).
fn deadline_expired(request: &ServingRequest) -> bool {
    request
        .deadline
        .is_some_and(|deadline| Instant::now() >= deadline)
}

/// Resolves every job of one dequeued run of one or more batch-compatible
/// jobs. Per member, in order:
///
/// * its queue wait is recorded and its deadline checked — an expired
///   member is shed ([`ShardStats::expired`]), never executed;
/// * the run's [`RunPlan`] is activated on the first live member — from
///   its routed selection, or from one re-selection if that selection's
///   device is no longer live;
/// * the member runs against the plan, billed its own routing charge,
///   unwind-isolated: a panic fails only this member
///   ([`ServingError::WorkerDied`], [`ShardStats::failed`]). A dead
///   placement device drops the plan, counts the failure and retries the
///   member once on a fresh activation — the dead device is no longer
///   live, so it re-selects onto a survivor — which the rest of the run
///   then shares. A retry that dies too resolves to
///   [`ServingError::DeviceFailed`].
///
/// A member served while this shard's pinned device is no longer live
/// (drained backlog after a retire, or a re-placed retry) counts as
/// [`ShardStats::migrated`].
fn serve_dequeued(
    core: &PoolCore,
    shard: &Shard,
    run: &mut Vec<Job>,
    workspace: &mut EngineWorkspace,
) {
    let engine = &core.engine;
    let counters = &shard.counters;
    if run.len() > 1 {
        core.routing
            .batch_activations
            .fetch_add(1, Ordering::SeqCst);
        core.routing
            .batched_requests
            .fetch_add(run.len() as u64, Ordering::SeqCst);
    }
    let mut plan = None;
    for job in run.drain(..) {
        let lane = job.request.priority.lane();
        core.latency.queue_wait[lane].record(job.queued.elapsed());
        let outcome = if deadline_expired(&job.request) {
            counters.expired.fetch_add(1, Ordering::SeqCst);
            Err(ServingError::DeadlineExceeded { shard: shard.index })
        } else {
            let mut attempt = try_member(engine, shard.index, &mut plan, &job, workspace);
            if let Attempt::DeviceDied(_) = attempt {
                // One retry, not a loop: a second dead device means the
                // fleet is flapping faster than selections, and the caller
                // should see that.
                counters.device_failures.fetch_add(1, Ordering::SeqCst);
                counters.retried.fetch_add(1, Ordering::SeqCst);
                plan = None;
                attempt = try_member(engine, shard.index, &mut plan, &job, workspace);
            }
            match attempt {
                Attempt::Served(response) => Ok(response),
                Attempt::Panicked => {
                    counters.failed.fetch_add(1, Ordering::SeqCst);
                    Err(ServingError::WorkerDied { shard: shard.index })
                }
                Attempt::DeviceDied(death) => {
                    counters.device_failures.fetch_add(1, Ordering::SeqCst);
                    plan = None;
                    Err(ServingError::DeviceFailed {
                        device: death.device,
                    })
                }
            }
        };
        let served = outcome.is_ok();
        let migrated = served && !engine.fleet().is_live(shard.device);
        // Resolve the ticket before counting the job completed: a drain
        // woken by the completion must find the outcome in place.
        job.responder.resolve(outcome);
        if served {
            counters.served.fetch_add(1, Ordering::SeqCst);
            let admitted = job.staged.unwrap_or(job.queued);
            core.latency.end_to_end[lane].record(admitted.elapsed());
        }
        if migrated {
            counters.migrated.fetch_add(1, Ordering::SeqCst);
        }
        finish_job(core, counters);
    }
}

/// The completion tail of every resolved job (served, failed, expired or
/// evicted): count it completed, release its in-flight slot, and wake any
/// parked drain or capacity waiter. The ticket is already resolved by this
/// point, so a woken waiter finds the outcome in place.
fn finish_job(core: &PoolCore, counters: &ShardCounters) {
    counters.completed.fetch_add(1, Ordering::SeqCst);
    core.front_door.in_flight.fetch_sub(1, Ordering::SeqCst);
    core.progress.notify();
}

/// The plan a run's members share, activated on its first live member: the
/// selection for select-only and gate work, or the pinned execution plan
/// with whether its first execution — the one billed a re-selection's
/// overhead — is still to come.
enum RunPlan {
    Select(Selection),
    Execute {
        activation: PlanActivation,
        first: bool,
    },
}

/// One unwind-isolated attempt at one run member.
enum Attempt {
    Served(ServingResponse),
    DeviceDied(DeviceFailed),
    Panicked,
}

/// Serves one member from the run's plan, activating the plan first if the
/// run has none (its first live member, or a retry after a dead device
/// dropped it). Execute members replay the activation through
/// [`SeerEngine::try_execute_activated_into`], so a device that died before
/// or during the kernel surfaces typed, and add the selection overhead
/// their routing was charged.
fn try_member(
    engine: &SeerEngine,
    shard: usize,
    plan: &mut Option<RunPlan>,
    job: &Job,
    workspace: &mut EngineWorkspace,
) -> Attempt {
    let request = &job.request;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let plan = match plan {
            Some(plan) => plan,
            None => plan.insert(activate(engine, job)?),
        };
        let (selection, result, total_time) = match (plan, &request.workload) {
            (RunPlan::Select(selection), _) => (*selection, None, None),
            (RunPlan::Execute { activation, first }, Workload::Execute { x }) => {
                let (selection, executed) = engine.try_execute_activated_into(
                    activation,
                    &request.matrix,
                    x,
                    request.iterations,
                    std::mem::take(first),
                    workspace,
                )?;
                (
                    selection,
                    Some(workspace.result().to_vec()),
                    Some(job.charge + executed),
                )
            }
            (RunPlan::Execute { .. }, _) => unreachable!("execute plans serve execute runs only"),
        };
        Ok(ServingResponse {
            selection,
            result,
            total_time,
            shard,
        })
    }));
    match outcome {
        Ok(Ok(response)) => Attempt::Served(response),
        Ok(Err(death)) => Attempt::DeviceDied(death),
        Err(_) => Attempt::Panicked,
    }
}

/// Activates the plan a run shares from one of its members: the member's
/// routed selection — re-selected once on the pool engine if its device is
/// no longer live — plus, for execute work, the pinned prepared plan
/// ([`SeerEngine::activate_selected`]).
fn activate(engine: &SeerEngine, job: &Job) -> Result<RunPlan, DeviceFailed> {
    let request = &job.request;
    match &request.workload {
        Workload::PanicInjection => panic!("injected worker panic"),
        Workload::Gate { gate } => {
            let (lock, opened) = &**gate;
            let open = lock.lock().unwrap_or_else(PoisonError::into_inner);
            drop(wait_for(opened, open, None, |open| open.then_some(())));
        }
        Workload::SelectOnly | Workload::Execute { .. } => {}
    }
    let (selection, charge) = if engine.fleet().is_live(job.selection.device) {
        (job.selection, SimTime::ZERO)
    } else {
        engine.select_with_policy_charged(&request.matrix, request.iterations, request.policy)
    };
    Ok(match &request.workload {
        Workload::Execute { .. } => RunPlan::Execute {
            activation: engine.activate_selected(&request.matrix, selection, charge)?,
            first: true,
        },
        _ => RunPlan::Select(selection),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainingConfig;
    use seer_sparse::collection::{generate, CollectionConfig, DatasetEntry};

    fn pool_and_corpus(shards: usize) -> (ServingPool, SeerEngine, Vec<DatasetEntry>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(shards));
        (pool, engine, entries)
    }

    #[test]
    fn pool_is_send_and_shuts_down_cleanly() {
        fn assert_send<T: Send>() {}
        assert_send::<ServingPool>();
        let (pool, _engine, _entries) = pool_and_corpus(3);
        assert_eq!(pool.shards(), 3);
        let stats = pool.shutdown();
        assert_eq!(stats.submitted(), 0);
        assert_eq!(stats.completed(), 0);
    }

    #[test]
    fn pooled_selections_match_a_sequential_engine() {
        let (pool, engine, entries) = pool_and_corpus(4);
        let tickets: Vec<Ticket> = entries
            .iter()
            .take(8)
            .map(|e| pool.submit(ServingRequest::select(Arc::new(e.matrix.clone()), 19)))
            .collect();
        for (ticket, entry) in tickets.into_iter().zip(entries.iter().take(8)) {
            let response = ticket.wait().expect("healthy worker");
            assert_eq!(response.selection, engine.select(&entry.matrix, 19));
        }
    }

    #[test]
    fn class_reuse_config_flows_to_every_shard_engine() {
        // Every shard serves from the pool engine, which carries the
        // setting.
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        // Default config: reuse stays off.
        let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(2));
        let off = pool.shutdown();
        assert_eq!(off.engine().inherited_selections, 0);

        // One shard so every family member hits the same engine; reuse on.
        let pool =
            ServingPool::from_engine(&engine, PoolConfig::with_shards(1).with_class_reuse(true));
        let mut rng = seer_sparse::SplitMix64::new(100);
        let family: Vec<Arc<CsrMatrix>> = (0..4)
            .map(|_| {
                Arc::new(seer_sparse::generators::uniform_row_length(
                    4000, 9, &mut rng,
                ))
            })
            .collect();
        let mut selections = Vec::new();
        for matrix in &family {
            let ticket = pool.submit(ServingRequest::select(Arc::clone(matrix), 19));
            selections.push(ticket.wait().expect("healthy worker").selection);
        }
        let stats = pool.shutdown();
        // The first member decided from scratch; later members inherited.
        assert!(stats.engine().inherited_selections >= 1);
        assert!(selections
            .iter()
            .all(|s| s.kernel == selections[0].kernel && s.device == selections[0].device));
    }

    /// Submits one request, waits for it and drains, so the pool is idle
    /// again — every shard's pending count back at zero — when it returns.
    fn serve_idle(pool: &ServingPool, request: ServingRequest) -> ServingResponse {
        let response = pool.submit(request).wait().expect("healthy worker");
        pool.drain();
        response
    }

    #[test]
    fn routing_is_by_fingerprint_modulo_shards() {
        // On an idle pool every shard ties at zero pending requests, and a
        // tie goes to the home shard: sparsity fingerprint % shards.
        let (pool, _engine, entries) = pool_and_corpus(4);
        let matrix = Arc::new(entries[0].matrix.clone());
        let home = (matrix.sparsity_fingerprint() % 4) as usize;
        for _ in 0..10 {
            let response = serve_idle(&pool, ServingRequest::select(Arc::clone(&matrix), 1));
            assert_eq!(
                response.shard, home,
                "an idle pool routes to the home shard"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.shards[home].completed, 10);
        assert_eq!(stats.completed(), 10);
        // One miss pool-wide, nine replays.
        assert_eq!(stats.engine().plan_misses, 1);
        assert_eq!(stats.engine().plan_hits, 9);
    }

    #[test]
    fn value_mutation_never_re_homes_a_matrix() {
        let (pool, _engine, entries) = pool_and_corpus(4);
        let mut matrix = entries[0].matrix.clone();
        let home = (matrix.sparsity_fingerprint() % 4) as usize;
        let first = serve_idle(&pool, ServingRequest::select(Arc::new(matrix.clone()), 19));
        let shifted: Vec<f64> = matrix.values().iter().map(|v| v * 3.0 - 1.0).collect();
        matrix.update_values(&shifted).expect("same-length values");
        let mutated = serve_idle(&pool, ServingRequest::select(Arc::new(matrix), 19));
        assert_eq!(first.shard, home);
        assert_eq!(
            mutated.shard, home,
            "a value-only mutation must keep the matrix on its warm home shard"
        );
        // ...and replay its cached plan.
        assert_eq!(mutated.selection, first.selection);
        assert_eq!(pool.stats().engine().plan_misses, 1);
    }

    #[test]
    fn drain_empties_the_queues() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let requests = entries
            .iter()
            .cycle()
            .take(40)
            .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 1));
        let _tickets = pool.submit_batch(requests);
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.submitted(), 40);
        assert_eq!(stats.completed(), 40);
        assert_eq!(stats.queue_depth(), 0);
        for shard in &stats.shards {
            assert_eq!(shard.queue_depth(), 0);
        }
    }

    #[test]
    fn execute_workload_returns_the_product() {
        let (pool, engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[1].matrix.clone());
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let response = pool
            .submit(ServingRequest::execute(
                Arc::clone(&matrix),
                Arc::clone(&x),
                5,
            ))
            .wait()
            .expect("healthy worker");
        let reference = engine.execute(&matrix, &x, 5);
        assert_eq!(
            response.result.as_deref(),
            Some(reference.result.as_slice())
        );
        assert_eq!(response.selection, reference.selection);
        // Both runs were cold for their respective caches, so both charge the
        // full selection overhead on top of the kernel time.
        assert_eq!(response.total_time, Some(reference.total_time));
    }

    #[test]
    fn policies_are_honoured_per_request() {
        let (pool, engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[2].matrix.clone());
        let known = pool
            .submit(
                ServingRequest::select(Arc::clone(&matrix), 1)
                    .with_policy(SelectionPolicy::KnownOnly),
            )
            .wait()
            .expect("healthy worker");
        let gathered = pool
            .submit(
                ServingRequest::select(Arc::clone(&matrix), 1)
                    .with_policy(SelectionPolicy::GatheredOnly),
            )
            .wait()
            .expect("healthy worker");
        assert!(!known.selection.used_gathered);
        assert!(gathered.selection.used_gathered);
        assert_eq!(known.selection, engine.select_known_only(&matrix, 1));
        assert_eq!(gathered.selection, engine.select_gathered_only(&matrix, 1));
    }

    #[test]
    fn single_shard_pool_serves_in_submission_order() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let tickets = pool.submit_batch(
            entries
                .iter()
                .take(6)
                .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 1)),
        );
        let shards: Vec<usize> = tickets.iter().map(Ticket::shard).collect();
        assert!(shards.iter().all(|&s| s == 0));
        let responses: Vec<ServingResponse> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().expect("healthy worker"))
            .collect();
        assert_eq!(responses.len(), 6);
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 6);
        assert_eq!(stats.engine().selections(), 6);
    }

    #[test]
    fn shutdown_serves_the_backlog_first() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let requests: Vec<ServingRequest> = entries
            .iter()
            .cycle()
            .take(60)
            .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 19))
            .collect();
        let tickets = pool.submit_batch(requests);
        // Shut down immediately: every accepted request must still be served.
        let stats = pool.shutdown();
        assert_eq!(stats.submitted(), 60);
        assert_eq!(stats.completed(), 60);
        for ticket in tickets {
            let _ = ticket.wait().expect("backlog is served before shutdown");
        }
    }

    #[test]
    fn try_wait_keeps_the_response_for_wait() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let mut ticket = pool.submit(ServingRequest::select(
            Arc::new(entries[0].matrix.clone()),
            1,
        ));
        pool.drain();
        let polled = loop {
            if let Some(response) = ticket.try_wait().expect("healthy worker") {
                break response.clone();
            }
        };
        // The polled response is not lost: wait() returns the same one.
        assert_eq!(ticket.wait().expect("healthy worker"), polled);
    }

    #[test]
    #[should_panic(expected = "x.len() == matrix.cols()")]
    fn malformed_execute_request_panics_on_the_submitting_thread() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        let wrong_len = Arc::new(vec![1.0; matrix.cols() + 1]);
        // Must fail here, in the submitter — not kill a shard worker (which
        // would abort the process when the pool's Drop joins it mid-unwind).
        let _ = pool.submit(ServingRequest::execute(matrix, wrong_len, 1));
    }

    #[test]
    fn single_device_pool_has_no_router_and_one_device_lane() {
        let (pool, _engine, entries) = pool_and_corpus(3);
        let _ = pool
            .submit(ServingRequest::select(
                Arc::new(entries[0].matrix.clone()),
                1,
            ))
            .wait()
            .expect("healthy worker");
        let stats = pool.stats();
        assert!(stats.router.is_none());
        let lanes = stats.devices();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].device, seer_gpu::DeviceId::DEFAULT);
        assert_eq!(lanes[0].shards, 3);
        assert_eq!(lanes[0].submitted, stats.submitted());
        assert_eq!(lanes[0].completed, stats.completed());
    }

    #[test]
    fn fleet_pool_matches_a_sequential_fleet_engine_and_pins_devices() {
        use seer_gpu::Fleet;

        let entries = generate(&CollectionConfig::tiny());
        let (trained, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let fleet = Fleet::reference_heterogeneous();
        let reference = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
        let pool = ServingPool::with_fleet(
            fleet.clone(),
            trained.models_handle(),
            PoolConfig::with_shards(2),
        );
        assert_eq!(pool.shards(), 2 * fleet.len());
        assert_eq!(pool.fleet().len(), fleet.len());

        // The tiny corpus is launch-overhead-bound (the APU's regime); add a
        // bandwidth-bound matrix so placements genuinely spread.
        let mut rng = seer_sparse::SplitMix64::new(0xF1EE7);
        let big = Arc::new(seer_sparse::generators::uniform_random(
            2_000, 2_000, 0.05, &mut rng,
        ));
        let mut requests: Vec<(Arc<CsrMatrix>, usize)> = entries
            .iter()
            .take(8)
            .flat_map(|e| {
                let matrix = Arc::new(e.matrix.clone());
                [(Arc::clone(&matrix), 1), (matrix, 19)]
            })
            .collect();
        requests.push((Arc::clone(&big), 1));
        requests.push((big, 19));
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|(matrix, iterations)| {
                pool.submit(ServingRequest::select(Arc::clone(matrix), *iterations))
            })
            .collect();
        let stats_devices: Vec<DeviceId> = pool
            .stats()
            .shards
            .iter()
            .map(|shard| shard.device)
            .collect();
        let mut placed = std::collections::HashSet::new();
        for (ticket, (matrix, iterations)) in tickets.into_iter().zip(&requests) {
            let response = ticket.wait().expect("healthy worker");
            let expected =
                reference.select_with_policy(matrix, *iterations, SelectionPolicy::Adaptive);
            // Pooled selections are bit-identical to a sequential fleet
            // engine, and every request landed on a shard pinned to the
            // device its selection placed it on.
            assert_eq!(response.selection, expected);
            assert_eq!(stats_devices[response.shard], expected.device);
            placed.insert(expected.device);
        }
        // The heterogeneous corpus genuinely spread across devices.
        assert!(
            placed.len() > 1,
            "expected placements on more than one device, got {placed:?}"
        );

        let stats = pool.stats();
        assert!(stats.router.is_none(), "the pool engine is the router");
        let lanes = stats.devices();
        assert_eq!(lanes.iter().map(|l| l.shards).sum::<usize>(), pool.shards());
        assert_eq!(
            lanes.iter().map(|l| l.submitted).sum::<u64>(),
            stats.submitted()
        );
        assert_eq!(
            lanes.iter().map(|l| l.completed).sum::<u64>(),
            stats.completed()
        );
        // One selection per request, made on the pool engine at routing.
        assert_eq!(stats.engine().selections(), requests.len() as u64);
        pool.shutdown();
    }

    #[test]
    fn ticket_polling_is_non_blocking_and_lossless() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let ticket = pool.submit(ServingRequest::select(
            Arc::new(entries[0].matrix.clone()),
            1,
        ));
        // Poll without blocking until served; is_done must never consume.
        while !ticket.is_done() {
            std::thread::yield_now();
        }
        assert!(ticket.is_done(), "is_done is idempotent");
        let response = ticket.wait().expect("healthy worker");
        // The first request on an idle pool lands on its home shard.
        assert_eq!(
            response.shard,
            (entries[0].matrix.sparsity_fingerprint() % 2) as usize
        );

        // wait_timeout: a response observed within the timeout stays owned.
        let mut ticket = pool.submit(ServingRequest::select(
            Arc::new(entries[1].matrix.clone()),
            1,
        ));
        let polled = loop {
            let outcome = ticket.wait_timeout(Duration::from_millis(50));
            if let Some(response) = outcome.expect("healthy worker") {
                break response.clone();
            }
        };
        assert_eq!(ticket.wait().expect("healthy worker"), polled);
    }

    #[test]
    fn throughput_and_elapsed_are_populated() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let _ = pool
            .submit(ServingRequest::select(
                Arc::new(entries[0].matrix.clone()),
                1,
            ))
            .wait()
            .expect("healthy worker");
        pool.drain();
        let stats = pool.stats();
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.throughput_per_sec() > 0.0);
    }

    /// A request that panics inside the worker.
    fn panic_request(matrix: Arc<CsrMatrix>) -> ServingRequest {
        ServingRequest {
            matrix,
            iterations: 1,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::PanicInjection,
            priority: Priority::default(),
            deadline: None,
        }
    }

    #[test]
    fn worker_panic_fails_one_request_and_the_worker_survives() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let before = pool.submit(ServingRequest::select(Arc::clone(&matrix), 1));
        let poisoned = pool.submit(panic_request(Arc::clone(&matrix)));
        // Submitted *after* the panic: only served if the worker survived it.
        let after = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        // Failed requests count as completed, so drain terminates.
        pool.drain();

        assert!(before.wait().is_ok());
        let shard = poisoned.shard();
        assert_eq!(poisoned.wait(), Err(ServingError::WorkerDied { shard }));
        assert!(after.wait().is_ok());

        let stats = pool.stats();
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.failed(), 1);
        assert_eq!(stats.shards[shard].failed, 1);
        assert!((stats.failure_rate() - 1.0 / 3.0).abs() < 1e-12);
        let lanes = stats.devices();
        assert_eq!(lanes.iter().map(|lane| lane.failed).sum::<u64>(), 1);
        let final_stats = pool.shutdown();
        assert_eq!(final_stats.queue_depth(), 0);
    }

    #[test]
    fn dead_ticket_resolves_through_every_polling_accessor() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let polled = pool.submit(panic_request(Arc::clone(&matrix)));
        let mut tried = pool.submit(panic_request(Arc::clone(&matrix)));
        let mut timed = pool.submit(panic_request(matrix));
        pool.drain();
        // is_done resolves (no spin, no panic) and wait still sees the error.
        while !polled.is_done() {
            std::thread::yield_now();
        }
        let shard = polled.shard();
        assert_eq!(polled.wait(), Err(ServingError::WorkerDied { shard }));
        let tried_shard = tried.shard();
        loop {
            match tried.try_wait() {
                Ok(None) => std::thread::yield_now(),
                Ok(Some(_)) => panic!("a poisoned request cannot produce a response"),
                Err(error) => {
                    assert_eq!(error, ServingError::WorkerDied { shard: tried_shard });
                    break;
                }
            }
        }
        let timed_shard = timed.shard();
        assert_eq!(
            timed.wait_timeout(Duration::from_secs(5)).err(),
            Some(ServingError::WorkerDied { shard: timed_shard })
        );
        assert_eq!(pool.shutdown().failed(), 3);
    }

    #[test]
    fn failure_rate_is_zero_without_traffic() {
        let (pool, _engine, _entries) = pool_and_corpus(2);
        let stats = pool.shutdown();
        assert_eq!(stats.failed(), 0);
        assert_eq!(stats.failure_rate(), 0.0);
        assert!(stats.failure_rate().is_finite());
    }

    #[test]
    fn recalibration_config_flows_pool_wide() {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let matrix = Arc::new(entries[0].matrix.clone());
        let x = Arc::new(vec![1.0; matrix.cols()]);

        // Default pool: recalibration off, no observations recorded.
        let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(1));
        let _ = pool
            .submit(ServingRequest::execute(
                Arc::clone(&matrix),
                Arc::clone(&x),
                5,
            ))
            .wait()
            .expect("healthy worker");
        assert_eq!(pool.shutdown().engine().timing_observations, 0);

        // Recalibrating pool: every executed request feeds the shared table.
        let config = PoolConfig::with_shards(1)
            .with_recalibration(Some(crate::engine::RecalibrationConfig::default()));
        let pool = ServingPool::from_engine(&engine, config);
        for _ in 0..3 {
            let _ = pool
                .submit(ServingRequest::execute(
                    Arc::clone(&matrix),
                    Arc::clone(&x),
                    5,
                ))
                .wait()
                .expect("healthy worker");
        }
        assert_eq!(pool.shutdown().engine().timing_observations, 3);
    }

    #[test]
    fn waiting_ticket_wakes_promptly_on_completion() {
        // wait() parks on the ticket's Condvar and wakes when the worker
        // side resolves the cell — no polling, no long wake latency.
        let cell = TicketCell::new();
        let ticket = Ticket {
            cell: Arc::clone(&cell),
            shard: 7,
            received: None,
        };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            cell.resolve(Err(ServingError::WorkerDied { shard: 7 }));
        });
        let started = Instant::now();
        assert_eq!(ticket.wait(), Err(ServingError::WorkerDied { shard: 7 }));
        let waited = started.elapsed();
        resolver.join().unwrap();
        assert!(
            waited >= Duration::from_millis(20),
            "wait() must actually block until the outcome lands, waited {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "a resolved ticket must wake promptly, waited {waited:?}"
        );

        // wait_timeout with a huge timeout also wakes on resolution, not on
        // the deadline.
        let cell = TicketCell::new();
        let mut ticket = Ticket {
            cell: Arc::clone(&cell),
            shard: 3,
            received: None,
        };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            cell.resolve(Err(ServingError::WorkerDied { shard: 3 }));
        });
        let started = Instant::now();
        let outcome = ticket.wait_timeout(Duration::from_secs(60));
        let waited = started.elapsed();
        resolver.join().unwrap();
        assert_eq!(outcome, Err(ServingError::WorkerDied { shard: 3 }));
        assert!(
            waited < Duration::from_secs(30),
            "wait_timeout must wake on resolution, not the deadline; waited {waited:?}"
        );

        // An unresolved ticket times out (and stays valid).
        let cell = TicketCell::new();
        let mut ticket = Ticket {
            cell,
            shard: 0,
            received: None,
        };
        let started = Instant::now();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(30)), Ok(None));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(!ticket.is_done());
    }

    #[test]
    fn serving_errors_display_and_compose() {
        let worker = ServingError::WorkerDied { shard: 2 };
        assert_eq!(
            worker.to_string(),
            "serving worker for shard 2 dropped the request"
        );
        let device = ServingError::DeviceFailed {
            device: DeviceId::DEFAULT,
        };
        assert!(device.to_string().contains("bounded retry"));

        // Both variants compose with `?` into a boxed error, alongside the
        // fleet's and the plan layer's typed errors.
        fn fails(
            error: impl std::error::Error + 'static,
        ) -> Result<(), Box<dyn std::error::Error>> {
            Err(error)?;
            Ok(())
        }
        assert!(fails(worker).unwrap_err().to_string().contains("shard 2"));
        assert!(fails(device).is_err());
        assert!(fails(seer_gpu::DeviceFailed {
            device: DeviceId::DEFAULT,
            status: seer_gpu::DeviceStatus::Failed,
        })
        .is_err());
        assert!(fails(seer_kernels::PlanMismatch::Sparsity).is_err());
        assert!(fails(MembershipError::AlreadyRetired(DeviceId::DEFAULT)).is_err());
    }

    #[test]
    fn failed_device_exhausts_the_bounded_retry_then_heals() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let device = DeviceId::DEFAULT;
        pool.fleet().fail_device(device).unwrap();

        // Execution on the (only, failed) device dies, the one retry dies
        // too, and the ticket resolves to the typed error — not WorkerDied,
        // not a hang.
        let ticket = pool.submit(ServingRequest::execute(
            Arc::clone(&matrix),
            Arc::clone(&x),
            5,
        ));
        assert_eq!(ticket.wait(), Err(ServingError::DeviceFailed { device }));
        // Tickets resolve before the completion counter bumps; drain so the
        // snapshot below is settled.
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.failed(), 0, "a dead device is not a worker panic");
        assert_eq!(stats.device_failures(), 2, "first attempt + one retry");
        assert_eq!(stats.retried(), 1);
        assert_eq!(stats.migrations(), 0, "nothing was served elsewhere");
        assert_balanced(&stats);

        // Selection-only requests survive a failed device: selection is
        // advisory and executes nothing.
        assert!(pool
            .submit(ServingRequest::select(Arc::clone(&matrix), 5))
            .wait()
            .is_ok());

        // Healing restores execute service on the same pool.
        pool.fleet().heal_device(device).unwrap();
        let healed = pool
            .submit(ServingRequest::execute(matrix, x, 5))
            .wait()
            .expect("healed device serves again");
        assert!(healed.result.is_some());
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.device_failures(), 2);
        assert!(stats.retry_rate() > 0.0 && stats.retry_rate() <= 1.0);
        assert_balanced(&stats);
    }

    #[test]
    fn drain_on_an_empty_pool_returns_immediately() {
        let (pool, _engine, _entries) = pool_and_corpus(2);
        pool.drain();
        pool.drain();
        assert_eq!(pool.stats().queue_depth(), 0);
    }

    #[test]
    fn double_retire_is_a_typed_error_not_a_panic() {
        let entries = generate(&CollectionConfig::tiny());
        let (trained, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let fleet = seer_gpu::Fleet::reference_heterogeneous();
        let pool =
            ServingPool::with_fleet(fleet, trained.models_handle(), PoolConfig::with_shards(1));
        let victim = pool.fleet().ids().last().unwrap();
        pool.retire_device(victim).unwrap();
        assert_eq!(
            pool.retire_device(victim),
            Err(MembershipError::AlreadyRetired(victim))
        );
        // Requests after the retire still resolve on the survivors.
        let response = pool
            .submit(ServingRequest::select(
                Arc::new(entries[0].matrix.clone()),
                19,
            ))
            .wait()
            .expect("survivors keep serving");
        assert_ne!(response.selection.device, victim);
        pool.shutdown();
    }

    #[test]
    fn add_device_expands_a_running_pool() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        assert_eq!(pool.shards(), 2);
        assert_eq!(pool.stats().devices().len(), 1);
        let before: Vec<Ticket> = entries
            .iter()
            .take(4)
            .map(|e| pool.submit(ServingRequest::select(Arc::new(e.matrix.clone()), 19)))
            .collect();

        let joined = pool
            .add_device(seer_gpu::GpuSpec::mi100())
            .expect("valid preset spec");
        assert_eq!(pool.shards(), 4, "two more shards pinned to the joiner");
        assert_eq!(
            pool.stats().devices().len(),
            2,
            "the joiner's shard group is published on join"
        );

        let after: Vec<Ticket> = entries
            .iter()
            .take(4)
            .map(|e| {
                pool.submit(ServingRequest::execute(
                    Arc::new(e.matrix.clone()),
                    Arc::new(vec![1.0; e.matrix.cols()]),
                    19,
                ))
            })
            .collect();
        for ticket in before.into_iter().chain(after) {
            assert!(ticket.wait().is_ok());
        }
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 8);
        assert_eq!(stats.failed(), 0);
        let lanes = stats.devices();
        assert_eq!(lanes.len(), 2);
        assert!(lanes.iter().any(|lane| lane.device == joined));
    }

    /// A closed gate whose job pins the single worker, so tests can stage
    /// deterministic queue contents behind it.
    fn gate_request(matrix: Arc<CsrMatrix>) -> (ServingRequest, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let request = ServingRequest {
            matrix,
            iterations: 1,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::Gate {
                gate: Arc::clone(&gate),
            },
            priority: Priority::default(),
            deadline: None,
        };
        (request, gate)
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, opened) = &**gate;
        *lock.lock().unwrap() = true;
        opened.notify_all();
    }

    /// Waits until the pool's workers have dequeued `count` jobs of the
    /// given class — queue-wait samples are recorded at dequeue, so the
    /// histogram doubles as a deterministic "worker picked it up" signal.
    fn wait_for_dequeues(pool: &ServingPool, priority: Priority, count: u64) {
        for _ in 0..2000 {
            if pool.stats().latency.queue_wait(priority).count() >= count {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("workers never dequeued {count} {priority} jobs");
    }

    fn admission_pool(admission: AdmissionConfig) -> (ServingPool, Vec<Arc<CsrMatrix>>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
        let pool = ServingPool::from_engine(
            &engine,
            PoolConfig::with_shards(1).with_admission(Some(admission)),
        );
        (pool, corpus)
    }

    #[test]
    fn interactive_requests_overtake_queued_batch_work() {
        // Priority lanes exist even without a bound. Pin the worker on a
        // gate, queue a best-effort job behind a *second* gate, then an
        // interactive request: the interactive one must be dequeued first
        // — it resolves while the best-effort gate is still closed.
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        let (slow_request, slow_gate) = gate_request(Arc::clone(&matrix));
        let best_effort = pool.submit(slow_request.with_priority(Priority::BestEffort));
        let interactive = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::Interactive),
        );
        open(&pin);
        let mut interactive = interactive;
        let response = interactive
            .wait_timeout(Duration::from_secs(30))
            .expect("healthy worker")
            .expect("the interactive request must overtake the queued best-effort job")
            .clone();
        assert_eq!(response.shard, 0);
        assert!(
            !best_effort.is_done(),
            "the best-effort job is still gated behind the served interactive one"
        );
        open(&slow_gate);
        assert!(best_effort.wait().is_ok());
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.served(), 3);
        // Both distributions saw the classes that went through them.
        assert_eq!(stats.latency.queue_wait(Priority::Interactive).count(), 2);
        assert_eq!(stats.latency.queue_wait(Priority::BestEffort).count(), 1);
        assert_eq!(stats.latency.end_to_end(Priority::BestEffort).count(), 1);
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue_and_never_executed() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        let selections_before = pool.stats().engine().selections();
        let doomed = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_timeout(Duration::from_millis(1)),
        );
        std::thread::sleep(Duration::from_millis(20));
        open(&pin);
        let shard = doomed.shard();
        assert_eq!(doomed.wait(), Err(ServingError::DeadlineExceeded { shard }));
        assert!(pinned.wait().is_ok());
        pool.drain();
        let stats = pool.shutdown();
        assert_eq!(stats.expired(), 1);
        assert_eq!(stats.admission.expired, 1);
        assert_eq!(stats.shards[shard].expired, 1);
        // Routing selected the doomed request once when it was admitted; it
        // expired in the queue and nothing re-selected it.
        assert_eq!(stats.engine().selections(), selections_before + 1);
        // Balance: served + expired partition completed exactly.
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.served(), 1);
        assert_eq!(stats.failed(), 0);
        // Expiry is a deadline miss, not load shedding.
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.admission.in_flight, 0);
    }

    #[test]
    fn full_queue_sheds_newest_with_a_typed_reason() {
        let (pool, corpus) = admission_pool(AdmissionConfig::bounded(1));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // The worker holds the gate job; capacity 1 admits exactly one more.
        let queued = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert!(queued.is_accepted());
        let shed = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert_eq!(shed.shed_reason(), Some(ShedReason::QueueFull { shard: 0 }));
        assert!(!shed.is_accepted());
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(queued.ticket().expect("accepted").wait().is_ok());
        let stats = pool.shutdown();
        assert!(stats.admission.enabled);
        assert_eq!(stats.admission.shed_queue_full, 1);
        assert_eq!(stats.admission.unticketed(), 1);
        assert_eq!(stats.shed(), 1);
        // The shed request never became a ticket: offered = admitted + shed.
        assert_eq!(stats.submitted(), 2);
        assert_eq!(stats.offered(), 3);
        assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.served(), 2);
    }

    #[test]
    fn drop_lowest_priority_evicts_the_newest_lower_class_victim() {
        let (pool, corpus) = admission_pool(
            AdmissionConfig::bounded(1).with_shed_policy(ShedPolicy::DropLowestPriority),
        );
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let victim = pool
            .try_submit(
                ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::BestEffort),
            )
            .ticket()
            .expect("queue had room");
        // A same-class arrival finds no strictly-lower victim: rejected.
        let rejected = pool.try_submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::BestEffort),
        );
        assert_eq!(
            rejected.shed_reason(),
            Some(ShedReason::QueueFull { shard: 0 })
        );
        // An interactive arrival evicts the queued best-effort victim.
        let winner = pool.try_submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::Interactive),
        );
        assert!(winner.is_accepted());
        assert_eq!(
            victim.wait(),
            Err(ServingError::Shed {
                reason: ShedReason::Evicted { shard: 0 }
            })
        );
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(winner.ticket().expect("accepted").wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.admission.evicted, 1);
        assert_eq!(stats.shards[0].shed, 1);
        assert_eq!(stats.admission.shed_queue_full, 1);
        assert_eq!(stats.shed(), 2, "one rejection + one eviction");
        // The victim was admitted, so it counts submitted AND completed.
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.served(), 2);
        assert_eq!(stats.offered(), 4);
    }

    #[test]
    fn in_flight_cap_sheds_and_blocking_submits_apply_backpressure() {
        let (pool, corpus) = admission_pool(AdmissionConfig::bounded(0).with_max_in_flight(1));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        // The gate job occupies the only in-flight slot.
        let shed = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert_eq!(shed.shed_reason(), Some(ShedReason::InFlightCap));
        // A bounded blocking submit waits, then sheds on timeout.
        let timed = pool.submit_with_timeout(
            ServingRequest::select(Arc::clone(&matrix), 19),
            Duration::from_millis(30),
        );
        assert_eq!(timed.shed_reason(), Some(ShedReason::BackpressureTimeout));
        // An unbounded blocking submit parks until the slot frees.
        let pool = Arc::new(pool);
        let parked = {
            let pool = Arc::clone(&pool);
            let matrix = Arc::clone(&matrix);
            std::thread::spawn(move || pool.submit(ServingRequest::select(matrix, 19)).wait())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!parked.is_finished(), "the slot is still held by the gate");
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(parked.join().unwrap().is_ok());
        let pool = Arc::into_inner(pool).expect("submitter joined");
        let stats = pool.shutdown();
        assert_eq!(stats.admission.shed_in_flight, 1);
        assert_eq!(stats.admission.shed_timeout, 1);
        assert!(stats.admission.backpressure_waits >= 2);
        assert_eq!(stats.admission.in_flight, 0);
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.shed(), 2);
        assert_eq!(stats.offered(), 4);
    }

    #[test]
    fn admission_free_pool_keeps_every_front_door_counter_zero() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let tickets = pool.submit_batch(
            entries
                .iter()
                .cycle()
                .take(40)
                .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 19)),
        );
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = pool.shutdown();
        assert!(!stats.admission.enabled);
        assert_eq!(stats.admission.shed_queue_full, 0);
        assert_eq!(stats.admission.shed_in_flight, 0);
        assert_eq!(stats.admission.shed_timeout, 0);
        assert_eq!(stats.admission.shed_closed, 0);
        assert_eq!(stats.admission.evicted, 0);
        assert_eq!(stats.admission.expired, 0);
        assert_eq!(stats.admission.backpressure_waits, 0);
        assert_eq!(stats.admission.in_flight, 0);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.expired(), 0);
        assert_eq!(stats.shed_rate(), 0.0);
        assert_eq!(stats.offered(), stats.submitted());
        assert_eq!(stats.served(), stats.completed());
        // The histograms still observe: every served request recorded one
        // queue-wait and one end-to-end sample in its (default) class.
        assert_eq!(stats.latency.queue_wait(Priority::Interactive).count(), 40);
        assert_eq!(stats.latency.end_to_end(Priority::Interactive).count(), 40);
        assert_eq!(stats.latency.queue_wait(Priority::Batch).count(), 0);
    }

    #[test]
    fn begin_shutdown_turns_submits_into_typed_pool_closed() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        let served = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        pool.begin_shutdown();
        pool.begin_shutdown(); // idempotent
                               // Blocking submit: an already-resolved ticket, not a panic.
        let refused = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert!(refused.is_done());
        assert_eq!(refused.shard(), usize::MAX);
        assert_eq!(refused.wait(), Err(ServingError::PoolClosed));
        // Non-blocking submit: a typed shed.
        let shed = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert_eq!(shed.shed_reason(), Some(ShedReason::PoolClosed));
        // Work admitted before the shutdown still drains.
        assert!(served.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.submitted(), 1);
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.admission.shed_closed, 2);
        assert_eq!(stats.offered(), 3);
    }

    #[test]
    fn shed_and_expired_tickets_wake_timed_waiters_promptly() {
        // The PR 8 prompt-wake guarantee extends to the new resolution
        // kinds: a ticket resolved by eviction or expiry wakes a parked
        // wait_timeout caller immediately, not at its deadline.
        for error in [
            ServingError::Shed {
                reason: ShedReason::Evicted { shard: 4 },
            },
            ServingError::DeadlineExceeded { shard: 4 },
            ServingError::PoolClosed,
        ] {
            let cell = TicketCell::new();
            let mut ticket = Ticket {
                cell: Arc::clone(&cell),
                shard: 4,
                received: None,
            };
            let resolver = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40));
                cell.resolve(Err(error));
            });
            let started = Instant::now();
            let outcome = ticket.wait_timeout(Duration::from_secs(60));
            let waited = started.elapsed();
            resolver.join().unwrap();
            assert_eq!(outcome, Err(error));
            assert!(
                waited < Duration::from_secs(30),
                "a {error} resolution must wake the waiter promptly, waited {waited:?}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_match_a_known_synthetic_distribution() {
        let histogram = AtomicHistogram::new();
        // 90 samples at 100 ns (bucket 6: [64, 128)) and 10 at 10 µs
        // (bucket 13: [8192, 16384)).
        for _ in 0..90 {
            histogram.record(Duration::from_nanos(100));
        }
        for _ in 0..10 {
            histogram.record(Duration::from_nanos(10_000));
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 100);
        assert_eq!(snapshot.bucket_counts()[6], 90);
        assert_eq!(snapshot.bucket_counts()[13], 10);
        // p50 and the 0.9 quantile land in the low bucket, p99/p999 in the
        // high one; interpolation stays inside each bucket's bounds.
        let low = Duration::from_nanos(64)..=Duration::from_nanos(128);
        let high = Duration::from_nanos(8192)..=Duration::from_nanos(16384);
        assert!(low.contains(&snapshot.p50()), "p50 = {:?}", snapshot.p50());
        assert!(low.contains(&snapshot.quantile(0.9)));
        assert!(high.contains(&snapshot.p99()), "p99 = {:?}", snapshot.p99());
        assert!(high.contains(&snapshot.p999()));
        // Quantiles are monotone in q.
        assert!(snapshot.quantile(0.1) <= snapshot.p50());
        assert!(snapshot.p50() <= snapshot.p99());
        assert!(snapshot.p99() <= snapshot.p999());
        // Out-of-range and NaN q are clamped, never a panic.
        assert!(snapshot.quantile(-1.0) <= snapshot.quantile(0.0));
        assert_eq!(snapshot.quantile(2.0), snapshot.quantile(1.0));
        let _ = snapshot.quantile(f64::NAN);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_powers_of_two() {
        let histogram = AtomicHistogram::new();
        histogram.record(Duration::ZERO); // clamps to 1 ns -> bucket 0
        histogram.record(Duration::from_nanos(1)); // bucket 0
        histogram.record(Duration::from_nanos(1023)); // bucket 9
        histogram.record(Duration::from_nanos(1024)); // bucket 10
        histogram.record(Duration::from_nanos(2047)); // bucket 10
        histogram.record(Duration::from_secs(u64::MAX)); // clamps -> bucket 63
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.bucket_counts()[0], 2);
        assert_eq!(snapshot.bucket_counts()[9], 1);
        assert_eq!(snapshot.bucket_counts()[10], 2);
        assert_eq!(snapshot.bucket_counts()[63], 1);
        assert_eq!(snapshot.count(), 6);
        // The top bucket's interpolation saturates instead of overflowing.
        assert!(snapshot.quantile(1.0) >= Duration::from_nanos(1 << 62));
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snapshot = AtomicHistogram::new().snapshot();
        assert_eq!(snapshot.count(), 0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0, -3.0, 7.0, f64::NAN] {
            assert_eq!(snapshot.quantile(q), Duration::ZERO);
        }
        assert_eq!(snapshot.p50(), Duration::ZERO);
        assert_eq!(snapshot.p99(), Duration::ZERO);
        assert_eq!(snapshot.p999(), Duration::ZERO);
        assert_eq!(snapshot, HistogramSnapshot::default());
    }

    #[test]
    fn admission_errors_and_reasons_display() {
        assert_eq!(
            ServingError::DeadlineExceeded { shard: 3 }.to_string(),
            "request expired in shard 3's queue before it could execute"
        );
        assert_eq!(
            ServingError::PoolClosed.to_string(),
            "the serving pool is shutting down"
        );
        let evicted = ServingError::Shed {
            reason: ShedReason::Evicted { shard: 1 },
        };
        assert!(evicted.to_string().contains("shard 1"));
        assert!(ShedReason::InFlightCap.to_string().contains("in-flight"));
        assert!(ShedReason::QueueFull { shard: 0 }
            .to_string()
            .contains("full"));
        assert!(ShedReason::BackpressureTimeout
            .to_string()
            .contains("timed out"));
        assert!(ShedReason::PoolClosed.to_string().contains("shutting down"));
        assert_eq!(Priority::Interactive.to_string(), "interactive");
        assert_eq!(Priority::BestEffort.to_string(), "best-effort");
        // Priority lanes are the dequeue order.
        assert_eq!(
            Priority::ALL.map(Priority::lane),
            [0, 1, 2],
            "ALL lists classes in dequeue order"
        );
        assert!(ShedReason::RoutingStageFull.to_string().contains("routing"));
    }

    /// A single-shard pool with the routing stage and micro-batching on,
    /// plus an optional admission config layered underneath.
    fn routed_pool(
        routing: RoutingConfig,
        admission: Option<AdmissionConfig>,
    ) -> (ServingPool, Vec<Arc<CsrMatrix>>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
        let pool = ServingPool::from_engine(
            &engine,
            PoolConfig::with_shards(1)
                .with_admission(admission)
                .with_routing(Some(routing)),
        );
        (pool, corpus)
    }

    /// Waits until the routing worker has forwarded `count` jobs to shard
    /// queues — `routed_async` increments only after a successful push, so
    /// the counter doubles as a deterministic "job left the stage" signal.
    fn wait_for_forwards(pool: &ServingPool, count: u64) {
        for _ in 0..2000 {
            if pool.stats().routing.routed_async >= count {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("routing worker never forwarded {count} jobs");
    }

    #[test]
    fn routing_off_pools_report_zero_routing_counters() {
        // The opt-out guarantee: a pool built without a RoutingConfig has no
        // stage, no routing worker, and every new counter pinned at zero.
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        for _ in 0..6 {
            let _ = pool
                .submit(ServingRequest::select(Arc::clone(&matrix), 19))
                .wait()
                .expect("healthy worker");
        }
        let stats = pool.shutdown();
        assert_eq!(stats.served(), 6);
        assert_eq!(stats.routing, RoutingPoolStats::default());
        assert!(!stats.routing.enabled);
        assert_eq!(stats.routing.mean_batch_size(), 0.0);
        assert_eq!(stats.routing.submit.count(), 0);
    }

    #[test]
    fn routed_pool_matches_sequential_and_balances_counters() {
        let (pool, corpus) = routed_pool(RoutingConfig::default(), None);
        let (replay_engine, _outcome) = {
            let entries = generate(&CollectionConfig::tiny());
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap()
        };
        let total = 24;
        let tickets: Vec<Ticket> = (0..total)
            .map(|i| {
                pool.submit(ServingRequest::select(
                    Arc::clone(&corpus[i % corpus.len()]),
                    19,
                ))
            })
            .collect();
        // Routed tickets have no home shard at submit time: placement is
        // the routing worker's job, not the submitter's.
        assert!(tickets.iter().all(|t| t.shard() == usize::MAX));
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("healthy worker");
            assert_eq!(
                response.selection,
                replay_engine.select_with_policy(
                    &corpus[i % corpus.len()],
                    19,
                    SelectionPolicy::Adaptive
                ),
                "routed request {i} diverged from the sequential replay"
            );
        }
        let stats = pool.shutdown();
        assert!(stats.routing.enabled);
        assert_eq!(stats.routing.routed_async, total as u64);
        assert_eq!(stats.routing.in_stage, 0);
        assert_eq!(stats.routing.shed_stage_full, 0);
        assert_eq!(stats.routing.stage_closed, 0);
        // Every submit went through the O(1) path and was timed.
        assert_eq!(stats.routing.submit.count(), total as u64);
        assert_eq!(stats.offered(), total as u64);
        assert_eq!(stats.served(), total as u64);
        assert_eq!(stats.shed() + stats.expired() + stats.failed(), 0);
        assert_eq!(stats.queue_depth(), 0);
    }

    #[test]
    fn same_fingerprint_runs_coalesce_into_one_activation() {
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        // Pin the worker so the burst queues up behind it. The gate job is
        // a chaos workload: it can never be coalesced into the run.
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let burst = 8;
        let tickets: Vec<Ticket> = (0..burst)
            .map(|_| pool.submit(ServingRequest::select(Arc::clone(&matrix), 19)))
            .collect();
        // Every burst member must be sitting in the shard queue before the
        // gate opens, or the run fragments nondeterministically.
        wait_for_forwards(&pool, burst as u64 + 1);
        open(&pin);
        let selections: Vec<Selection> = tickets
            .into_iter()
            .map(|t| t.wait().expect("healthy worker").selection)
            .collect();
        assert!(pinned.wait().is_ok());
        assert!(selections.iter().all(|s| *s == selections[0]));
        let stats = pool.shutdown();
        assert_eq!(stats.served(), burst as u64 + 1);
        // The whole burst ran as one activation: one selection resolve for
        // eight requests.
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.routing.batched_requests, burst as u64);
        assert_eq!(stats.routing.mean_batch_size(), burst as f64);
        assert_eq!(
            stats.engine().selections(),
            burst as u64 + 1,
            "one selection per request, made at routing; the run activates once"
        );
    }

    #[test]
    fn batched_execute_matches_sequential_results_bit_for_bit() {
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let (replay_engine, _outcome) = {
            let entries = generate(&CollectionConfig::tiny());
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap()
        };
        let matrix = Arc::clone(&corpus[1]);
        let x = Arc::new(vec![0.5; matrix.cols()]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let burst = 6;
        let tickets: Vec<Ticket> = (0..burst)
            .map(|_| {
                pool.submit(ServingRequest::execute(
                    Arc::clone(&matrix),
                    Arc::clone(&x),
                    5,
                ))
            })
            .collect();
        wait_for_forwards(&pool, burst as u64 + 1);
        open(&pin);
        let responses: Vec<ServingResponse> = tickets
            .into_iter()
            .map(|t| t.wait().expect("healthy worker"))
            .collect();
        assert!(pinned.wait().is_ok());
        // Sequential oracle: same requests, one at a time, fresh engine.
        let first = replay_engine.execute(&matrix, &x, 5);
        for (index, response) in responses.iter().enumerate() {
            let reference = replay_engine.execute(&matrix, &x, 5);
            assert_eq!(response.selection, first.selection);
            assert_eq!(
                response.result.as_deref(),
                Some(reference.result.as_slice()),
                "batched execute {index} diverged numerically"
            );
        }
        // Billing parity: the run's first executed request carries the
        // activation overhead, replays are pure kernel time — exactly the
        // sequential miss-then-hit pattern.
        let times: Vec<_> = responses.iter().map(|r| r.total_time.unwrap()).collect();
        assert!(times[0] >= times[1]);
        assert!(times.windows(2).skip(1).all(|w| w[0] == w[1]));
        let stats = pool.shutdown();
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.routing.batched_requests, burst as u64);
        assert_eq!(stats.failed(), 0);
    }

    #[test]
    fn expired_batchmate_is_shed_at_dequeue_never_executed() {
        // Satellite bugfix-by-construction: a request whose deadline lapsed
        // while it sat grouped in a pending batch is still shed at dequeue
        // (counted expired), and its batchmates serve through the shared
        // activation unharmed.
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // The doomed request is first into the batch — the run's *head* —
        // so expiry must also shift the activation onto a later batchmate.
        let doomed = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_timeout(Duration::from_millis(1)),
        );
        let survivors: Vec<Ticket> = (0..4)
            .map(|_| pool.submit(ServingRequest::select(Arc::clone(&matrix), 19)))
            .collect();
        wait_for_forwards(&pool, 6);
        std::thread::sleep(Duration::from_millis(20));
        // Every request was selected at routing, before this snapshot.
        let selections_before = pool.stats().engine().selections();
        open(&pin);
        assert_eq!(
            doomed.wait(),
            Err(ServingError::DeadlineExceeded { shard: 0 })
        );
        for ticket in survivors {
            let _ = ticket.wait().expect("batchmates of an expired request");
        }
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.expired(), 1);
        assert_eq!(stats.served(), 5);
        // Serving the run selected nothing more, and activating its plan on
        // a later batchmate did not re-select for the expired head.
        assert_eq!(stats.engine().selections(), selections_before);
        // The doomed job was coalesced into the run before it was shed.
        assert_eq!(stats.routing.batched_requests, 5);
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.offered(), 6);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
    }

    #[test]
    fn eviction_removes_a_pending_batchmate_without_poisoning_the_run() {
        // Satellite bugfix-by-construction: DropLowestPriority can evict a
        // request already grouped (same fingerprint, same lane) into a
        // pending batch; the victim resolves typed and the surviving
        // batchmates' tickets stay intact.
        let (pool, corpus) = routed_pool(
            RoutingConfig::default().with_max_batch(16),
            Some(AdmissionConfig::bounded(3).with_shed_policy(ShedPolicy::DropLowestPriority)),
        );
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // Three best-effort batchmates fill the bounded queue exactly.
        let batchmates: Vec<Ticket> = (0..3)
            .map(|_| {
                pool.submit(
                    ServingRequest::select(Arc::clone(&matrix), 19)
                        .with_priority(Priority::BestEffort),
                )
            })
            .collect();
        wait_for_forwards(&pool, 4);
        // An interactive arrival forces the policy to evict the newest
        // best-effort job — the tail of the pending batch.
        let vip = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::Interactive),
        );
        wait_for_forwards(&pool, 5);
        open(&pin);
        let outcomes: Vec<_> = batchmates.into_iter().map(Ticket::wait).collect();
        assert_eq!(
            outcomes[2],
            Err(ServingError::Shed {
                reason: ShedReason::Evicted { shard: 0 }
            }),
            "the newest batchmate is the eviction victim"
        );
        assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "{outcomes:?}");
        assert!(vip.wait().is_ok());
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.served(), 4);
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.admission.evicted, 1);
        // The two surviving batchmates still coalesced into one activation.
        assert_eq!(stats.routing.batched_requests, 2);
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
    }

    #[test]
    fn full_routing_stage_sheds_typed_on_try_submit_and_blocks_on_submit() {
        // Stage capacity 1 with the worker wedged behind a full shard
        // queue: the stage fills, try_submit sheds typed, and the counter
        // feeds the offered/shed balance.
        let (pool, corpus) = routed_pool(
            RoutingConfig::default().with_stage_capacity(1),
            Some(AdmissionConfig::bounded(1)),
        );
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // One job fills the bounded shard queue...
        let queued = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        wait_for_forwards(&pool, 2);
        // ...the next wedges the routing worker in its backpressure wait...
        let staged = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        // ...and a fourth finds the stage itself full.
        let shed = loop {
            match pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19)) {
                SubmitOutcome::Shed { reason } => break reason,
                // The worker may not have popped `staged` yet; accepted
                // submits just deepen the stage until it reports full.
                SubmitOutcome::Accepted(_) => continue,
            }
        };
        assert_eq!(shed, ShedReason::RoutingStageFull);
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(queued.wait().is_ok());
        assert!(staged.wait().is_ok());
        pool.drain();
        let stats = pool.shutdown();
        assert!(stats.routing.shed_stage_full >= 1);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
        assert_eq!(stats.routing.in_stage, 0);
    }

    #[test]
    fn begin_shutdown_racing_the_routing_worker_resolves_every_staged_ticket() {
        // Wedge the routing worker behind a full shard queue with more work
        // parked in the stage, then begin_shutdown: every in-stage ticket
        // must resolve typed PoolClosed — never hang, never leak.
        let (pool, corpus) =
            routed_pool(RoutingConfig::default(), Some(AdmissionConfig::bounded(1)));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let queued = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        wait_for_forwards(&pool, 2);
        // These sit in the stage: the worker is blocked on the full queue.
        let staged: Vec<Ticket> = (0..4)
            .map(|_| pool.submit(ServingRequest::select(Arc::clone(&matrix), 19)))
            .collect();
        pool.begin_shutdown();
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(queued.wait().is_ok());
        let mut closed = 0;
        for mut ticket in staged {
            match ticket
                .wait_timeout(Duration::from_secs(30))
                .map(|r| r.cloned())
            {
                Ok(Some(_)) => {}
                Ok(None) => panic!("a staged ticket never resolved across the shutdown race"),
                Err(ServingError::PoolClosed) => closed += 1,
                Err(other) => panic!("staged ticket resolved to an unexpected error: {other}"),
            }
        }
        let stats = pool.shutdown();
        // The worker was wedged when the stage closed, so at least one
        // staged job was still in the stage and resolved typed.
        assert!(closed >= 1, "expected at least one PoolClosed resolution");
        assert_eq!(stats.routing.stage_closed, closed);
        assert_eq!(stats.routing.in_stage, 0);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
    }

    #[test]
    fn chaos_workloads_and_mixed_kinds_never_coalesce() {
        // batchable() is conservative: select-only and execute runs never
        // mix, and chaos workloads always serve alone.
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // Alternating kinds with the same fingerprint: runs break at every
        // kind boundary, so no batch ever forms.
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    pool.submit(ServingRequest::select(Arc::clone(&matrix), 19))
                } else {
                    pool.submit(ServingRequest::execute(
                        Arc::clone(&matrix),
                        Arc::clone(&x),
                        19,
                    ))
                }
            })
            .collect();
        wait_for_forwards(&pool, 7);
        open(&pin);
        for ticket in tickets {
            let _ = ticket.wait().expect("healthy worker");
        }
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.served(), 7);
        assert_eq!(
            stats.routing.batch_activations, 0,
            "alternating request kinds must never coalesce"
        );
        assert_eq!(stats.routing.batched_requests, 0);
    }

    #[test]
    fn routing_config_builders_and_stats_helpers() {
        let config = RoutingConfig::default()
            .with_stage_capacity(64)
            .with_max_batch(4);
        assert_eq!(config.stage_capacity, 64);
        assert_eq!(config.max_batch, 4);
        let default = RoutingConfig::default();
        assert_eq!(default.stage_capacity, 1024);
        assert_eq!(default.max_batch, 8);
        let mut stats = RoutingPoolStats {
            batched_requests: 12,
            batch_activations: 3,
            ..RoutingPoolStats::default()
        };
        assert_eq!(stats.mean_batch_size(), 4.0);
        stats.batch_activations = 0;
        assert_eq!(stats.mean_batch_size(), 0.0);
    }

    /// The exact per-shard balance. With one bounded retry per request, a
    /// request whose retry is exhausted resolves to `DeviceFailed` and lands
    /// in none of served/failed/expired/shed: it is the `device_failures -
    /// retried` term.
    fn assert_balanced(stats: &PoolStats) {
        for s in &stats.shards {
            assert_eq!(
                s.served + s.failed + s.expired + s.shed + (s.device_failures - s.retried),
                s.completed,
                "shard {} is out of balance: {s:?}",
                s.shard
            );
        }
    }

    #[test]
    fn routed_end_to_end_includes_the_wait_in_the_routing_stage() {
        // End-to-end runs from the ticket's acceptance (the stage push on a
        // routed pool) to resolution; queue wait starts at the shard push.
        let (pool, corpus) =
            routed_pool(RoutingConfig::default(), Some(AdmissionConfig::bounded(1)));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // One job fills the bounded shard queue; the next one is held in
        // the stage while the routing worker waits for space.
        let queued = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        wait_for_forwards(&pool, 2);
        let staged = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(pool.stats().routing.in_stage, 1);
        open(&pin);
        for ticket in [pinned, queued, staged] {
            assert!(ticket.wait().is_ok());
        }
        pool.drain();
        let stats = pool.shutdown();
        // Buckets from 2^26 ns (~67 ms) up hold the samples that lived
        // through the 150 ms hold.
        let slow =
            |histogram: &HistogramSnapshot| histogram.bucket_counts()[26..].iter().sum::<u64>();
        assert_eq!(
            slow(stats.latency.end_to_end(Priority::Interactive)),
            3,
            "the gate job, the queued job and the staged job all waited"
        );
        assert_eq!(
            slow(stats.latency.queue_wait(Priority::Interactive)),
            1,
            "only the queued job waited in the shard queue"
        );
    }

    #[test]
    fn coalesced_run_on_a_dead_device_retries_each_member_once_then_heals() {
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let device = DeviceId::DEFAULT;
        let burst = 5u64;
        // Queues one burst of identical execute requests behind a gate job
        // (`earlier` jobs went through the pool before), runs `before_open`
        // and then lets the burst run as one coalesced run.
        let serve_burst = |earlier: u64, before_open: &dyn Fn()| {
            let (pin_request, pin) = gate_request(Arc::clone(&matrix));
            let pinned = pool.submit(pin_request);
            wait_for_dequeues(&pool, Priority::Interactive, earlier + 1);
            let tickets: Vec<Ticket> = (0..burst)
                .map(|_| {
                    pool.submit(ServingRequest::execute(
                        Arc::clone(&matrix),
                        Arc::clone(&x),
                        5,
                    ))
                })
                .collect();
            wait_for_forwards(&pool, earlier + burst + 1);
            before_open();
            open(&pin);
            assert!(pinned.wait().is_ok());
            let outcomes: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
            pool.drain();
            outcomes
        };

        let outcomes = serve_burst(0, &|| pool.fleet().fail_device(device).unwrap());
        assert!(
            outcomes
                .iter()
                .all(|outcome| *outcome == Err(ServingError::DeviceFailed { device })),
            "{outcomes:?}"
        );
        let stats = pool.stats();
        assert_eq!(
            stats.device_failures(),
            2 * burst,
            "first attempt + one retry each"
        );
        assert_eq!(stats.retried(), burst);
        assert_eq!(stats.failed(), 0, "a dead device is not a worker panic");
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.routing.batched_requests, burst);
        assert_balanced(&stats);

        pool.fleet().heal_device(device).unwrap();
        let outcomes = serve_burst(1 + burst, &|| {});
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
        let stats = pool.shutdown();
        assert_eq!(
            stats.routing.batch_activations, 2,
            "the healed burst shares one more activation"
        );
        assert_eq!(stats.routing.batched_requests, 2 * burst);
        assert_eq!(stats.device_failures(), 2 * burst);
        assert_balanced(&stats);
    }

    #[test]
    fn fleet_pool_selects_each_request_once_pool_wide() {
        // Fresh matrices through an inline 2-device pool: one plan miss and
        // one preparation per matrix, summed over every engine the pool
        // owns.
        let entries = generate(&CollectionConfig::tiny());
        let (trained, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let fleet = Fleet::of_specs(Fleet::reference_presets().into_iter().take(2))
            .expect("presets validate");
        let pool =
            ServingPool::with_fleet(fleet, trained.models_handle(), PoolConfig::with_shards(2));
        let mut rng = seer_sparse::SplitMix64::new(0x5E1EC7);
        let fresh = 12;
        for _ in 0..fresh {
            let matrix = Arc::new(seer_sparse::generators::uniform_random(
                400, 400, 0.02, &mut rng,
            ));
            let x = Arc::new(vec![1.0; matrix.cols()]);
            let response = pool
                .submit(ServingRequest::execute(matrix, x, 19))
                .wait()
                .expect("healthy worker");
            assert!(response.result.is_some());
        }
        let stats = pool.shutdown();
        let owned = stats
            .router
            .unwrap_or_default()
            .saturating_add(stats.engine());
        assert_eq!(owned.plan_misses, fresh, "one selection per request");
        assert_eq!(owned.plan_preparations, fresh);
    }

    #[test]
    fn an_idle_worker_serves_past_a_pinned_shard() {
        // Work conservation: with one worker pinned on a gate, a request on
        // the gate's own fingerprint goes to the idle shard instead of
        // queueing behind the gate.
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let mut ticket = pool.submit(ServingRequest::execute(Arc::clone(&matrix), x, 19));
        let served = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("healthy worker")
            .cloned();
        let gate_was_closed = !pinned.is_done();
        // Open before asserting, so a failure cannot leave the pinned
        // worker blocking the pool's drop.
        open(&pin);
        let response = served.expect("the idle shard must serve while the gate is still closed");
        assert!(gate_was_closed);
        assert_ne!(response.shard, pinned.shard());
        assert!(pinned.wait().is_ok());
        pool.shutdown();
    }

    #[test]
    fn billing_does_not_depend_on_the_serving_shard() {
        // Two gates pin both workers of a routed 2-shard pool — the second
        // gate finds the first one's shard busier — so a burst of identical
        // execute requests alternates between the two queues by length.
        // Whichever shard serves each request, selection, result bits and
        // billed time match a sequential replay: the first admitted request
        // carries the miss, the rest are pure kernel time.
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let pool = ServingPool::from_engine(
            &engine,
            PoolConfig::with_shards(2).with_routing(Some(RoutingConfig::default())),
        );
        let replay = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
        let gated = Arc::new(entries[0].matrix.clone());
        let (first_pin, first_gate) = gate_request(Arc::clone(&gated));
        let (second_pin, second_gate) = gate_request(gated);
        let pins = [pool.submit(first_pin), pool.submit(second_pin)];
        let mut rng = seer_sparse::SplitMix64::new(0xB111);
        let matrix = Arc::new(seer_sparse::generators::uniform_random(
            500, 500, 0.02, &mut rng,
        ));
        let x = Arc::new(vec![0.25; matrix.cols()]);
        let burst = 6;
        let tickets: Vec<Ticket> = (0..burst)
            .map(|_| {
                pool.submit(ServingRequest::execute(
                    Arc::clone(&matrix),
                    Arc::clone(&x),
                    7,
                ))
            })
            .collect();
        wait_for_forwards(&pool, burst as u64 + 2);
        open(&first_gate);
        open(&second_gate);
        let responses: Vec<ServingResponse> = tickets
            .into_iter()
            .map(|t| t.wait().expect("healthy worker"))
            .collect();
        for pin in pins {
            assert!(pin.wait().is_ok());
        }
        let shards: std::collections::HashSet<usize> = responses.iter().map(|r| r.shard).collect();
        assert_eq!(shards.len(), 2, "the burst spreads over both workers");
        for (index, response) in responses.iter().enumerate() {
            let reference = replay.execute(&matrix, &x, 7);
            assert_eq!(response.selection, reference.selection);
            assert_eq!(
                response.result.as_deref(),
                Some(reference.result.as_slice()),
                "request {index} diverged numerically on shard {}",
                response.shard
            );
            assert_eq!(
                response.total_time,
                Some(reference.total_time),
                "request {index} was billed differently on shard {}",
                response.shard
            );
        }
        let times: Vec<SimTime> = responses.iter().map(|r| r.total_time.unwrap()).collect();
        assert!(
            times[0] > times[1],
            "the first admitted request carries the miss"
        );
        assert!(times[1..].windows(2).all(|w| w[0] == w[1]));
        pool.shutdown();
    }
}

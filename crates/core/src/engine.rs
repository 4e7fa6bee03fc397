//! The Seer runtime service layer: an owned, thread-safe engine that amortizes
//! selection cost across repeated and batched requests.
//!
//! The one-shot predictor of earlier revisions re-ran feature collection and
//! re-walked the decision trees on every call. A production deployment of
//! Seer faces the opposite traffic shape: the same matrices come back over
//! and over (iterative solvers, request fleets hitting shared operators), so
//! the engine memoizes per-matrix work in one cache entry per *sparsity*
//! fingerprint ([`seer_sparse::CsrMatrix::sparsity_fingerprint`]) — every
//! cached artifact is a function of the sparsity pattern alone, so a
//! value-only mutation through [`seer_sparse::CsrMatrix::update_values`]
//! keeps the entire warm path warm. An entry holds:
//!
//! * the fused [`MatrixProfile`], computed once per distinct pattern and
//!   shared by every device's cost models;
//! * the gathered-feature collection (statistics + the modelled GPU cost of
//!   collecting them), computed once per distinct pattern;
//! * the **plan cache**: the full [`Selection`] per `(iterations, policy)`,
//!   computed once and replayed bit-identically on every later request,
//!   including requests presenting the same structure with mutated values;
//! * per `(device, kernel)`, the kernel's modelled costs and its prepared
//!   plan — the materialized preprocessing structure the warm path replays.
//!
//! Every execute entry point runs one sequence: select (one cache lookup),
//! pin the plan and costs (one more), compute, bill. A serving worker pins
//! the plan and costs once for a run of same-fingerprint requests and
//! replays them with no cache lookup at all.
//!
//! The one values-dependent artifact — the ELL slab a prepared plan may
//! embed — carries its own values key and is *refreshed* in place (no
//! profile pass, no selection) when a mutated matrix arrives, counted in
//! [`EngineStats::plan_value_refreshes`].
//!
//! Beyond exact sparsity matches, the engine can optionally reuse
//! selections across a whole *structure class*: see
//! [`SeerEngine::set_structure_class_reuse`]. A fresh matrix whose quantized
//! [`StructureSignature`] matches an already-decided class inherits that
//! class's `(kernel, device)` pair and skips the cost-model sweep entirely —
//! the cold-path counterpart of the warm plan cache, for near-duplicate
//! matrix families.
//!
//! Hit/miss/fallback counters are exposed through [`SeerEngine::stats`] so
//! evaluations can verify exactly how much work was saved.
//!
//! # Heterogeneous fleets
//!
//! The engine is built over a [`Fleet`] of one or more devices. On a
//! single-device fleet (every constructor taking a [`Gpu`]) behaviour is
//! bit-identical to the pre-fleet engine: the device is trivially the
//! default and no ranking runs. On a multi-device fleet, each selection
//! additionally *places* the workload: the classifier names the kernel from
//! matrix features alone, and the engine then evaluates that kernel's
//! modelled total time (device-specific feature-collection cost + inference
//! overhead + preprocessing + iterations x per-iteration) on **every** fleet
//! device through the per-device cost models, returning the `(kernel,
//! device)` pair with the minimum — ties break toward the lowest
//! [`DeviceId`], so placement is deterministic. Device-dependent artifacts
//! (kernel costs, prepared plans) sit under `(device, kernel)` inside the
//! fingerprint's entry; the fused [`MatrixProfile`] is device-independent,
//! so a fleet-wide ranking still performs exactly one profiling pass per
//! matrix.
//!
//! # Example: share one engine across threads
//!
//! ```
//! use std::sync::Arc;
//! use seer_core::engine::SeerEngine;
//! use seer_core::training::TrainingConfig;
//! use seer_gpu::Gpu;
//! use seer_sparse::collection::{generate, CollectionConfig};
//!
//! # fn main() -> Result<(), seer_core::SeerError> {
//! let collection = generate(&CollectionConfig::tiny());
//! let (engine, _outcome) =
//!     SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())?;
//! let engine = Arc::new(engine);
//!
//! // `SeerEngine` is `Send + Sync`: clones of the handle can serve requests
//! // from any thread, all sharing the same plan cache.
//! let workers: Vec<_> = (0..2)
//!     .map(|_| {
//!         let engine = Arc::clone(&engine);
//!         let matrix = collection[0].matrix.clone();
//!         std::thread::spawn(move || engine.select(&matrix, 19))
//!     })
//!     .collect();
//! let selections: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
//! assert_eq!(selections[0], selections[1]);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use seer_gpu::{DeviceFailed, DeviceId, Fleet, Gpu, SimTime};
use seer_kernels::{kernel, ComputeScratch, KernelId, KernelProfile, PreparedPlan};
use seer_sparse::collection::DatasetEntry;
use seer_sparse::{CsrMatrix, MatrixProfile, Scalar, SplitMix64, StructureSignature};

use crate::benchmarking::BenchmarkRecord;
use crate::features::{FeatureCollection, FeatureCollector, KnownFeatures};
use crate::inference::{inference_overhead, ExecutionOutcome, Selection, SelectionPolicy};
use crate::training::{train, SeerModels, TrainingConfig, TrainingOutcome};
use crate::SeerError;

/// What one memoized selection is cached under within its fingerprint's
/// [`FingerprintEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SelectionKey {
    iterations: usize,
    policy: SelectionPolicy,
}

/// Epsilon-greedy near-tie exploration, layered on top of recalibrated
/// ranking (see [`RecalibrationConfig::exploration`]).
///
/// The greedy corrected argmin starves its own feedback loop: once a device
/// looks slow, nothing is ever scheduled there again, so a correction that
/// *overshot* (or a perturbation that has since lifted) is never revisited.
/// Exploration fixes that: on a plan-cache hit whose top two `(kernel,
/// device)` candidates are within [`ExplorationPolicy::near_tie_fraction`]
/// of each other in corrected modelled time, the engine diverts the request
/// to the runner-up with probability [`ExplorationPolicy::epsilon`], drawn
/// from a deterministic [`SplitMix64`] stream seeded by
/// [`ExplorationPolicy::seed`]. Cache misses always place greedily — the
/// cached plan stays the model's honest argmin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationPolicy {
    /// How close (as a fraction of the best corrected total) the runner-up
    /// must be to qualify for exploration: `runner <= best * (1 + fraction)`.
    /// `f64::INFINITY` disables the near-tie gate entirely (pure
    /// epsilon-greedy over the top two), which is what lets a correction that
    /// drove a device's factor to the clamp ceiling ever observe that device
    /// again.
    pub near_tie_fraction: f64,
    /// Probability of diverting a qualifying request to the runner-up, in
    /// `[0, 1]`.
    pub epsilon: f64,
    /// Seed of the deterministic exploration RNG stream. Engines configured
    /// with the same seed explore identically on identical request streams.
    pub seed: u64,
}

impl Default for ExplorationPolicy {
    /// 5% near-tie window, 10% exploration probability, fixed seed.
    fn default() -> Self {
        Self {
            near_tie_fraction: 0.05,
            epsilon: 0.1,
            seed: 0x5EE7,
        }
    }
}

/// Configuration of the engine's online recalibration layer (see
/// [`SeerEngine::set_recalibration`]).
///
/// The layer maintains one EWMA correction factor per `(device, kernel)`
/// pair: after each execute, the observed-over-modelled ratio of the pair
/// that ran is folded in as
/// `factor <- clamp(factor * (1 - smoothing) + ratio * smoothing)`, and the
/// factor multiplies that pair's modelled kernel total during selection and
/// fleet placement. Factors start at `1.0` (trust the models) and stay there
/// while observations agree with the models, so a perfectly-specced fleet
/// behaves bit-identically with recalibration on or off in expectation — and
/// exactly identically with it off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecalibrationConfig {
    /// EWMA smoothing constant in `(0, 1]`: the weight of the newest
    /// observation. `0.25` converges to within 5% of a sustained 2x drift in
    /// ~10 observations while a single outlier moves the factor at most 25%
    /// of the way toward it.
    pub smoothing: f64,
    /// Lower clamp of a correction factor (> 0). Clamping bounds how far a
    /// burst of corrupt observations can drag a factor, so recovery is at
    /// worst `log(clamp) / log(1 - smoothing)` observations away.
    pub clamp_min: f64,
    /// Upper clamp of a correction factor (>= `clamp_min`).
    pub clamp_max: f64,
    /// Optional epsilon-greedy near-tie exploration on the warm path; `None`
    /// serves pure greedy corrected argmins.
    pub exploration: Option<ExplorationPolicy>,
}

impl Default for RecalibrationConfig {
    /// Smoothing 0.25, factors clamped to `[0.25, 4]`, no exploration.
    fn default() -> Self {
        Self {
            smoothing: 0.25,
            clamp_min: 0.25,
            clamp_max: 4.0,
            exploration: None,
        }
    }
}

impl RecalibrationConfig {
    /// Panics on out-of-range knobs; called once at install time so the hot
    /// path never re-validates.
    fn validate(&self) {
        assert!(
            self.smoothing > 0.0 && self.smoothing <= 1.0,
            "recalibration smoothing must be in (0, 1], got {}",
            self.smoothing
        );
        assert!(
            self.clamp_min > 0.0 && self.clamp_min.is_finite(),
            "recalibration clamp_min must be finite and > 0, got {}",
            self.clamp_min
        );
        assert!(
            self.clamp_max >= self.clamp_min && self.clamp_max.is_finite(),
            "recalibration clamp_max must be finite and >= clamp_min, got {}",
            self.clamp_max
        );
        if let Some(exploration) = &self.exploration {
            assert!(
                (0.0..=1.0).contains(&exploration.epsilon),
                "exploration epsilon must be in [0, 1], got {}",
                exploration.epsilon
            );
            assert!(
                exploration.near_tie_fraction >= 0.0,
                "exploration near_tie_fraction must be >= 0, got {}",
                exploration.near_tie_fraction
            );
        }
    }
}

/// The online recalibration state: one EWMA correction factor per
/// `(device, kernel)` pair plus the exploration RNG stream. Held behind an
/// `Arc`, so a ranking reads it without holding the engine's handle lock.
#[derive(Debug)]
struct Recalibration {
    config: RecalibrationConfig,
    /// Correction factors as `f64` bit patterns, slot
    /// `device.index() * |kernels| + kernel.class_index()`; all start at 1.0.
    /// Behind an `RwLock` so the table can grow when a device joins the
    /// fleet at runtime — reads on the ranking hot path take the read lock
    /// only, and a slot that does not exist yet reads as 1.0 (a fresh device
    /// starts at trust-the-models, exactly like a fresh table).
    factors: RwLock<Vec<AtomicU64>>,
    /// Deterministic exploration stream; a split of the configured seed so
    /// the raw seed value itself never leaks into the draw sequence.
    rng: Mutex<SplitMix64>,
}

impl Recalibration {
    /// Label splitting the exploration stream off the configured seed.
    const RNG_STREAM: u64 = 0xEC41_1B84_7E00_5EE7;

    fn new(config: RecalibrationConfig, devices: usize) -> Self {
        config.validate();
        let seed = config.exploration.map_or(0, |e| e.seed);
        Self {
            config,
            factors: RwLock::new(
                (0..devices * KernelId::ALL.len())
                    .map(|_| AtomicU64::new(1.0f64.to_bits()))
                    .collect(),
            ),
            rng: Mutex::new(SplitMix64::new(seed).split(Self::RNG_STREAM)),
        }
    }

    fn slot(device: DeviceId, kernel: KernelId) -> usize {
        device.index() * KernelId::ALL.len() + kernel.class_index()
    }

    /// The current correction factor of one `(device, kernel)` pair. A
    /// device the table has never observed (e.g. one that joined after
    /// construction) reads as 1.0.
    fn factor(&self, device: DeviceId, kernel: KernelId) -> f64 {
        self.factors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(Self::slot(device, kernel))
            .map_or(1.0, |bits| f64::from_bits(bits.load(Ordering::Relaxed)))
    }

    /// Folds one observed/modelled ratio into the pair's EWMA factor,
    /// growing the table first if the device joined after construction.
    fn observe(&self, device: DeviceId, kernel: KernelId, ratio: f64) {
        let RecalibrationConfig {
            smoothing,
            clamp_min,
            clamp_max,
            ..
        } = self.config;
        let slot = Self::slot(device, kernel);
        let fold = |bits: u64| {
            let old = f64::from_bits(bits);
            let blended = old * (1.0 - smoothing) + ratio * smoothing;
            Some(blended.clamp(clamp_min, clamp_max).to_bits())
        };
        {
            let factors = self.factors.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = factors.get(slot) {
                let _ = entry.fetch_update(Ordering::Relaxed, Ordering::Relaxed, fold);
                return;
            }
        }
        let mut factors = self.factors.write().unwrap_or_else(PoisonError::into_inner);
        while factors.len() <= slot {
            factors.push(AtomicU64::new(1.0f64.to_bits()));
        }
        let _ = factors[slot].fetch_update(Ordering::Relaxed, Ordering::Relaxed, fold);
    }

    /// Drift gauge: `round(1000 * max |ln factor|)` over every slot. Zero
    /// means every factor sits at 1.0 — the models match observations
    /// everywhere the engine has looked.
    fn max_drift_millilog(&self) -> u64 {
        let max = self
            .factors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|bits| f64::from_bits(bits.load(Ordering::Relaxed)).ln().abs())
            .fold(0.0f64, f64::max);
        (max * 1000.0).round() as u64
    }

    /// Resets every factor to 1.0 (a new stats/cache generation).
    fn reset(&self) {
        for slot in self
            .factors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            slot.store(1.0f64.to_bits(), Ordering::Relaxed);
        }
    }

    /// Drops one departed device's learned factors back to 1.0 so a retired
    /// (or failed-and-healed) device's history is never leaked into a future
    /// occupant of the ranking — the factors are forgotten, not parked.
    fn reset_device(&self, device: DeviceId) {
        let factors = self.factors.read().unwrap_or_else(PoisonError::into_inner);
        for kernel in KernelId::ALL {
            if let Some(slot) = factors.get(Self::slot(device, kernel)) {
                slot.store(1.0f64.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Whether `runner` qualifies as a near-tie against `best` under the
    /// exploration policy.
    fn near_tie(&self, best: SimTime, runner: SimTime) -> bool {
        let Some(exploration) = &self.config.exploration else {
            return false;
        };
        if exploration.near_tie_fraction.is_infinite() {
            return true;
        }
        runner.as_nanos() <= best.as_nanos() * (1.0 + exploration.near_tie_fraction)
    }

    /// Draws the epsilon-greedy coin for one qualifying request. Advances
    /// the deterministic stream only on qualifying requests, so exploration
    /// traces replay exactly for a fixed request sequence.
    fn explore(&self) -> bool {
        let Some(exploration) = &self.config.exploration else {
            return false;
        };
        if exploration.epsilon <= 0.0 {
            return false;
        }
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        rng.next_f64() < exploration.epsilon
    }
}

/// One fleet candidate priced by [`SeerEngine::rank_corrected`].
#[derive(Debug, Clone, Copy)]
struct RankedDevice {
    device: DeviceId,
    collection_cost: SimTime,
    total: SimTime,
}

/// Snapshot of the engine's cache and fallback counters.
///
/// Snapshots are plain counter tuples; combine them with
/// [`EngineStats::saturating_add`] (aggregating engines or devices) and
/// diff them with [`EngineStats::saturating_sub`] (progress since an
/// earlier snapshot).
/// Both are saturating so stats arithmetic can never wrap, even when a
/// snapshot straddles a [`SeerEngine::clear_caches`] counter reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Selections answered straight from the plan cache.
    pub plan_hits: u64,
    /// Selections that had to be computed (and were then cached).
    pub plan_misses: u64,
    /// Gathered-feature collections actually performed (not replayed).
    pub feature_collections: u64,
    /// Fused matrix-profiling passes this engine actually triggered (cache
    /// replays — engine-level or on the matrix's own memoized profile — are
    /// not counted). A plan-cache miss performs at most one; a hit performs
    /// zero.
    pub profile_passes: u64,
    /// Times a model emitted an out-of-range class and the engine fell back
    /// to the default kernel. Always zero for correctly trained models.
    pub misprediction_fallbacks: u64,
    /// Prepared execution plans actually built (one per
    /// `(fingerprint, device, kernel)` cache miss; replays build none). A
    /// plan-cache miss that executes performs exactly one preparation; a hit
    /// performs zero.
    pub plan_preparations: u64,
    /// Cache entries dropped by the eviction policy: prepared plans evicted
    /// by the byte budget plus per-fingerprint entries dropped by a budgeted
    /// clear. Zero under the default (generous) budgets.
    pub cache_evictions: u64,
    /// Prepared plans whose embedded values went stale after a value-only
    /// mutation and were rebuilt in place (ELL slab refreshes). A refresh
    /// runs no profile pass and no selection, and is deliberately *not*
    /// counted as a [`EngineStats::plan_preparations`] — it is the warm
    /// path's maintenance cost, not a cold build.
    pub plan_value_refreshes: u64,
    /// Structure-class index probes that found a matching class (see
    /// [`SeerEngine::set_structure_class_reuse`]). Zero while class reuse is
    /// disabled.
    pub class_hits: u64,
    /// Selections actually served by inheriting a cached class's
    /// `(kernel, device)` pair, skipping the cost-model sweep. Each is also
    /// counted as a plan miss (the exact plan cache did not have it).
    pub inherited_selections: u64,
    /// Structure-class entries dropped by the class index's LRU bound or by
    /// a cache clear/sweep.
    pub class_evictions: u64,
    /// Observed execution timings folded into the recalibration layer's
    /// correction factors. Zero while recalibration is disabled (see
    /// [`SeerEngine::set_recalibration`]).
    pub timing_observations: u64,
    /// Rankings (placements, warm re-ranks, record placements) in which at
    /// least one non-unit correction factor actually multiplied a modelled
    /// total. Zero while every factor sits at 1.0.
    pub corrections_applied: u64,
    /// Plan-cache hits the exploration policy diverted to the modelled
    /// runner-up `(kernel, device)` candidate. Zero without an
    /// [`ExplorationPolicy`].
    pub explored_selections: u64,
    /// Drift gauge: `round(1000 * max |ln f|)` over every correction factor
    /// `f` — e.g. a factor of 2.0 reports ~693. A gauge, not a counter:
    /// snapshots report the instantaneous worst-case model/observation
    /// disagreement, and [`EngineStats::saturating_add`] combines it by
    /// `max` (the fleet-wide worst), not by sum.
    pub correction_drift_millilog: u64,
    /// Heap bytes currently held by cached prepared plans — a gauge, not a
    /// counter: snapshots report the instantaneous residency.
    pub resident_plan_bytes: u64,
}

impl EngineStats {
    /// Total selections served (cache hits plus computed plans).
    pub fn selections(&self) -> u64 {
        self.plan_hits.saturating_add(self.plan_misses)
    }

    /// Fraction of selections answered from the plan cache, in `[0, 1]`.
    /// Zero when no selections have been served.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.selections();
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Component-wise saturating sum, for aggregating snapshots of several
    /// engines or devices. The drift gauge combines by `max` — the
    /// aggregate's worst drift, not a sum that would scale with the number
    /// of snapshots.
    pub fn saturating_add(self, other: EngineStats) -> EngineStats {
        self.zip(other, u64::saturating_add, u64::max)
    }

    /// Component-wise saturating difference against an `earlier` snapshot.
    ///
    /// When `earlier` was taken before a [`SeerEngine::clear_caches`] counter
    /// reset, the naive subtraction would underflow; saturation clamps each
    /// component at zero instead.
    pub fn saturating_sub(self, earlier: EngineStats) -> EngineStats {
        self.zip(earlier, u64::saturating_sub, u64::saturating_sub)
    }

    /// Combines two snapshots field by field: every counter and the resident
    /// bytes through `count`, the drift gauge through `gauge`.
    fn zip(
        self,
        other: EngineStats,
        count: fn(u64, u64) -> u64,
        gauge: fn(u64, u64) -> u64,
    ) -> EngineStats {
        EngineStats {
            plan_hits: count(self.plan_hits, other.plan_hits),
            plan_misses: count(self.plan_misses, other.plan_misses),
            feature_collections: count(self.feature_collections, other.feature_collections),
            profile_passes: count(self.profile_passes, other.profile_passes),
            misprediction_fallbacks: count(
                self.misprediction_fallbacks,
                other.misprediction_fallbacks,
            ),
            plan_preparations: count(self.plan_preparations, other.plan_preparations),
            cache_evictions: count(self.cache_evictions, other.cache_evictions),
            plan_value_refreshes: count(self.plan_value_refreshes, other.plan_value_refreshes),
            class_hits: count(self.class_hits, other.class_hits),
            inherited_selections: count(self.inherited_selections, other.inherited_selections),
            class_evictions: count(self.class_evictions, other.class_evictions),
            timing_observations: count(self.timing_observations, other.timing_observations),
            corrections_applied: count(self.corrections_applied, other.corrections_applied),
            explored_selections: count(self.explored_selections, other.explored_selections),
            correction_drift_millilog: gauge(
                self.correction_drift_millilog,
                other.correction_drift_millilog,
            ),
            resident_plan_bytes: count(self.resident_plan_bytes, other.resident_plan_bytes),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    feature_collections: AtomicU64,
    profile_passes: AtomicU64,
    misprediction_fallbacks: AtomicU64,
    plan_preparations: AtomicU64,
    cache_evictions: AtomicU64,
    plan_value_refreshes: AtomicU64,
    class_hits: AtomicU64,
    inherited_selections: AtomicU64,
    class_evictions: AtomicU64,
    timing_observations: AtomicU64,
    corrections_applied: AtomicU64,
    explored_selections: AtomicU64,
}

impl Counters {
    fn reset(&self) {
        for counter in [
            &self.plan_hits,
            &self.plan_misses,
            &self.feature_collections,
            &self.profile_passes,
            &self.misprediction_fallbacks,
            &self.plan_preparations,
            &self.cache_evictions,
            &self.plan_value_refreshes,
            &self.class_hits,
            &self.inherited_selections,
            &self.class_evictions,
            &self.timing_observations,
            &self.corrections_applied,
            &self.explored_selections,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// Device-attributable counters, one set per fleet device.
///
/// A selection is attributed to the device it places the workload on; plan
/// preparations and prepared-plan evictions are attributed to the device in
/// their cache key. Work that is *shared* across the fleet — profiling
/// passes, feature collections, misprediction fallbacks, budgeted
/// fingerprint sweeps — is only meaningful in the aggregate
/// [`SeerEngine::stats`] and stays zero in per-device breakdowns.
#[derive(Debug, Default)]
struct DeviceCounters {
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_preparations: AtomicU64,
    cache_evictions: AtomicU64,
}

impl DeviceCounters {
    fn reset(&self) {
        self.plan_hits.store(0, Ordering::Relaxed);
        self.plan_misses.store(0, Ordering::Relaxed);
        self.plan_preparations.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
    }
}

/// The cached state of one `(device, kernel)` pair of one sparsity pattern:
/// the kernel's iteration-independent costs on that device and its prepared
/// plan, each filled on first need. Prepared structures are functionally
/// device-independent today, but the slot carries the device so per-device
/// layouts (and per-device eviction accounting) stay possible.
#[derive(Debug)]
struct KernelSlot {
    device: DeviceId,
    kernel: KernelId,
    /// Whether `costs` holds the pair's modelled costs yet: a plan may be
    /// prepared before the pair is ever priced. (A flag rather than an
    /// `Option` keeps the slot 8 bytes smaller, paid per fingerprint.)
    priced: bool,
    costs: KernelCosts,
    plan: Option<Arc<PreparedPlan>>,
    /// Logical-clock stamp of the plan's last use, for LRU eviction. Atomic
    /// so a warm pin stamps it under the read lock; it orders evictions and
    /// publishes no other data, hence `Relaxed`.
    last_used: AtomicU64,
}

/// Everything the engine caches about one sparsity pattern. Each part is a
/// function of the sparsity arrays alone (the one values-dependent artifact,
/// an ELL slab inside a prepared plan, carries its own values key), so a
/// value-only mutation keeps the whole entry warm.
///
/// The lists hold a handful of items and grow by one exact allocation at a
/// time: an entry is retained per distinct matrix, so spare capacity would
/// be paid per fingerprint.
#[derive(Debug, Default)]
struct FingerprintEntry {
    /// The fused profile, shared by every device's cost models, so a
    /// fleet-wide ranking profiles the matrix once.
    profile: Option<Arc<MatrixProfile>>,
    /// The gathered-feature collection, modelled on the default device.
    /// Boxed because most fingerprints never take the gathered path.
    features: Option<Box<FeatureCollection>>,
    /// Selections by `(iterations, policy)`.
    selections: Box<[(SelectionKey, Selection)]>,
    /// Kernel costs and prepared plans by `(device, kernel)`.
    kernels: Box<[KernelSlot]>,
}

impl FingerprintEntry {
    fn selection(&self, key: SelectionKey) -> Option<Selection> {
        self.selections
            .iter()
            .find(|(cached, _)| *cached == key)
            .map(|(_, selection)| *selection)
    }

    fn kernel_index(&self, device: DeviceId, kernel: KernelId) -> Option<usize> {
        let mut slots = self.kernels.iter();
        slots.position(|slot| slot.device == device && slot.kernel == kernel)
    }

    /// The slot of `(device, kernel)`, appended empty on first use.
    fn kernel_or_insert(&mut self, device: DeviceId, kernel: KernelId) -> &mut KernelSlot {
        let index = self.kernel_index(device, kernel).unwrap_or_else(|| {
            let slot = KernelSlot {
                device,
                kernel,
                priced: false,
                costs: KernelCosts::default(),
                plan: None,
                last_used: AtomicU64::new(0),
            };
            push_exact(&mut self.kernels, slot);
            self.kernels.len() - 1
        });
        &mut self.kernels[index]
    }

    /// Cached items no single device owns — selections, the feature
    /// collection, the profile and kernel costs — which evictions count in
    /// the aggregate alone.
    fn shared_items(&self) -> u64 {
        let costs = self.kernels.iter().filter(|slot| slot.priced);
        (self.selections.len()
            + usize::from(self.features.is_some())
            + usize::from(self.profile.is_some())
            + costs.count()) as u64
    }

    /// Whether any of this entry's slots holds a prepared plan.
    fn holds_plan(&self) -> bool {
        self.kernels.iter().any(|slot| slot.plan.is_some())
    }

    /// The devices of the prepared plans this entry holds, one per plan.
    fn plan_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.kernels
            .iter()
            .filter(|slot| slot.plan.is_some())
            .map(|slot| slot.device)
    }
}

/// Appends one item to an exact-size list.
fn push_exact<T>(list: &mut Box<[T]>, item: T) {
    let mut grown = std::mem::take(list).into_vec();
    grown.reserve_exact(1);
    grown.push(item);
    *list = grown.into_boxed_slice();
}

/// The engine's per-matrix cache: one [`FingerprintEntry`] per sparsity
/// fingerprint, behind one `RwLock` that is held only for map operations
/// and never together with another engine lock. Warm lookups take the read
/// side; installs, evictions and sweeps the write side. Cold builds run
/// unlocked (see [`SeerEngine::prepared_plan_on`] for how install races
/// resolve).
///
/// Two bounds keep it finite. Prepared plans are byte-accounted and evicted
/// least-recently-used by a logical clock, driven purely by the byte budget;
/// the plan just installed or used is never the victim, so a single plan
/// larger than the budget still serves. And once a selection install leaves
/// more fingerprints cached than the fingerprint budget, every entry is
/// swept in one pass.
#[derive(Debug)]
struct FingerprintCache {
    entries: HashMap<u64, FingerprintEntry>,
    /// The fingerprints whose entries hold at least one prepared plan, each
    /// once, so an evicting install searches the resident plans rather than
    /// every cached fingerprint. 8 bytes per indexed entry; every path that
    /// installs or drops a plan keeps it exact.
    planned: Vec<u64>,
    /// Heap bytes held by cached prepared plans.
    plan_bytes: usize,
    plan_budget: usize,
    fingerprint_budget: usize,
    /// The LRU clock stamping prepared-plan use (see
    /// [`KernelSlot::last_used`]).
    clock: AtomicU64,
}

impl FingerprintCache {
    /// Default prepared-plan byte budget: 64 MiB, far above anything the
    /// test corpora materialize, so eviction only engages under adversarial
    /// traffic or an explicit tighter budget.
    const DEFAULT_PLAN_BUDGET: usize = 64 << 20;

    fn new() -> Self {
        Self {
            entries: HashMap::new(),
            planned: Vec::new(),
            plan_bytes: 0,
            plan_budget: Self::DEFAULT_PLAN_BUDGET,
            fingerprint_budget: SeerEngine::DEFAULT_FINGERPRINT_BUDGET as usize,
            clock: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn slots(&self) -> impl Iterator<Item = &KernelSlot> {
        self.entries.values().flat_map(|entry| entry.kernels.iter())
    }

    /// The cached costs of one `(device, kernel)` slot and, when `use_plan`,
    /// its prepared plan if that is current for `matrix`'s values (stamping
    /// the plan's use).
    fn lookup(
        &self,
        matrix: &CsrMatrix,
        device: DeviceId,
        kernel: KernelId,
        use_plan: bool,
    ) -> (Option<KernelCosts>, Option<Arc<PreparedPlan>>) {
        let entry = self.entries.get(&matrix.sparsity_fingerprint());
        let found =
            entry.and_then(|entry| Some(&entry.kernels[entry.kernel_index(device, kernel)?]));
        let Some(slot) = found else {
            return (None, None);
        };
        let plan = match &slot.plan {
            Some(plan) if use_plan && plan.values_current(matrix) => {
                slot.last_used.store(self.tick(), Ordering::Relaxed);
                Some(Arc::clone(plan))
            }
            _ => None,
        };
        (slot.priced.then_some(slot.costs), plan)
    }

    /// The slots holding a prepared plan, found through the index, with the
    /// position of their fingerprint in it and their index in the entry.
    fn planned_slots(&self) -> impl Iterator<Item = (usize, usize, &KernelSlot)> {
        self.planned
            .iter()
            .enumerate()
            .flat_map(|(at, fingerprint)| {
                let slots = self.entries[fingerprint].kernels.iter().enumerate();
                slots
                    .filter(|(_, slot)| slot.plan.is_some())
                    .map(move |(index, slot)| (at, index, slot))
            })
    }

    /// Evicts least-recently-used plans until the byte budget is met, never
    /// the most recently used one — the plan just installed or pinned.
    /// Returns the device of each evicted plan (empty in the common
    /// under-budget case), so the caller can attribute each eviction.
    fn evict_plans(&mut self) -> Vec<DeviceId> {
        let mut evicted = Vec::new();
        if self.plan_bytes <= self.plan_budget {
            return evicted;
        }
        let stamp = |slot: &KernelSlot| slot.last_used.load(Ordering::Relaxed);
        let newest = self.planned_slots().map(|(_, _, slot)| stamp(slot)).max();
        while self.plan_bytes > self.plan_budget {
            let victim = self
                .planned_slots()
                .map(|(at, index, slot)| (stamp(slot), at, index))
                .filter(|&(used, _, _)| Some(used) != newest)
                .min_by_key(|&(used, _, _)| used);
            let Some((_, at, index)) = victim else { break };
            let entry = self.entries.get_mut(&self.planned[at]);
            let entry = entry.expect("indexed fingerprints are cached");
            let slot = &mut entry.kernels[index];
            if let Some(plan) = slot.plan.take() {
                self.plan_bytes -= plan.heap_bytes();
                evicted.push(slot.device);
            }
            if !entry.holds_plan() {
                self.planned.swap_remove(at);
            }
        }
        evicted
    }

    /// Drops from the index every fingerprint whose entry no longer holds a
    /// plan, after a pass that dropped plans across many entries.
    fn reindex_plans(&mut self) {
        let Self {
            entries, planned, ..
        } = self;
        planned.retain(|fingerprint| {
            entries
                .get(fingerprint)
                .is_some_and(FingerprintEntry::holds_plan)
        });
    }

    /// Empties the map (budgets and clock survive, so recency comparisons
    /// stay monotone across cache generations) and hands back the dropped
    /// entries, so the caller counts and frees them after releasing the
    /// lock.
    fn take_entries(&mut self) -> HashMap<u64, FingerprintEntry> {
        self.plan_bytes = 0;
        self.planned = Vec::new();
        std::mem::take(&mut self.entries)
    }
}

/// Cache key of one structure class: the quantized sparsity signature plus
/// the workload shape the selection was made for. Iterations and policy stay
/// in the key because both flip winners (short workloads amortize less
/// preprocessing; the policies walk different trees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    signature: StructureSignature,
    iterations: usize,
    policy: SelectionPolicy,
}

/// The inheritable part of one from-scratch selection: the `(kernel,
/// device)` pair and which classifier path chose it. Costs are deliberately
/// not inherited — an inherited selection reports zero overheads because it
/// performed none.
#[derive(Debug, Clone, Copy)]
struct ClassEntry {
    kernel: KernelId,
    device: DeviceId,
    used_gathered: bool,
    last_used: u64,
}

/// Bounded LRU index of structure classes, keyed by [`ClassKey`]. Only
/// from-scratch selections are inserted (inherited ones would merely copy an
/// existing entry), and only Live-source selections (records carry no matrix
/// to derive a signature from).
#[derive(Debug)]
struct ClassIndex {
    map: HashMap<ClassKey, ClassEntry>,
    capacity: usize,
    clock: u64,
}

impl ClassIndex {
    /// Default class capacity. Signatures are coarse by construction, so
    /// even adversarial traffic materializes few distinct classes; 1024
    /// bounds the index at a few tens of KiB.
    const DEFAULT_CAPACITY: usize = 1024;

    fn new() -> Self {
        Self {
            map: HashMap::new(),
            capacity: Self::DEFAULT_CAPACITY,
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up the class, refreshing its recency on a hit.
    fn lookup(&mut self, key: &ClassKey) -> Option<ClassEntry> {
        let tick = self.tick();
        let entry = self.map.get_mut(key)?;
        entry.last_used = tick;
        Some(*entry)
    }

    /// Inserts (or refreshes) a class and evicts the least recently used
    /// entries past the capacity bound. Returns how many entries were
    /// evicted.
    fn insert(&mut self, key: ClassKey, kernel: KernelId, device: DeviceId, gather: bool) -> u64 {
        let tick = self.tick();
        self.map.insert(
            key,
            ClassEntry {
                kernel,
                device,
                used_gathered: gather,
                last_used: tick,
            },
        );
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .filter(|(candidate, _)| **candidate != key)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(candidate, _)| *candidate);
            let Some(victim) = victim else { break };
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn clear(&mut self) -> u64 {
        let dropped = self.map.len() as u64;
        self.map.clear();
        dropped
    }
}

/// Iteration-independent modelled costs of one kernel on one matrix and
/// device, cached in the matrix's [`KernelSlot`] so steady-state execute
/// never re-runs the O(rows) cost models.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct KernelCosts {
    preprocessing: SimTime,
    per_iteration: SimTime,
}

impl KernelCosts {
    /// Total workload time at `iterations`, via the same arithmetic as
    /// [`KernelProfile::total`] so cached and freshly measured totals are
    /// bit-identical.
    fn total_at(&self, kernel: KernelId, iterations: usize) -> SimTime {
        KernelProfile::new(kernel, self.preprocessing, self.per_iteration, iterations).total()
    }
}

/// Reusable per-caller buffers for the allocation-free
/// [`SeerEngine::execute_into`] path: the output vector and the kernel lane
/// scratch survive across requests, so a steady-state execute performs zero
/// heap allocations.
///
/// Each [`crate::serving::ServingPool`] shard worker owns one workspace for
/// its whole lifetime.
#[derive(Debug, Default)]
pub struct EngineWorkspace {
    y: Vec<Scalar>,
    scratch: ComputeScratch,
}

impl EngineWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The product vector of the most recent execute served into this
    /// workspace.
    pub fn result(&self) -> &[Scalar] {
        &self.y
    }

    /// Takes ownership of the most recent product vector, leaving the
    /// workspace empty (it re-grows on the next request).
    pub fn take_result(&mut self) -> Vec<Scalar> {
        std::mem::take(&mut self.y)
    }
}

/// One resolved-and-pinned execution plan, produced by
/// [`SeerEngine::activate_selected`] and replayed by
/// [`SeerEngine::try_execute_activated_into`]: the selection, the charged
/// selection overhead (billed to exactly one execution), the pinned
/// `Arc<PreparedPlan>` and the `(device, kernel)` costs executions are
/// billed from. A serving worker activates once per run of
/// same-fingerprint requests, so a burst of K identical operators walks
/// the cache once instead of K times.
#[derive(Debug, Clone)]
pub(crate) struct PlanActivation {
    /// The `(kernel, device)` selection every execution in the run replays.
    selection: Selection,
    /// The selection overhead this activation's resolve actually incurred
    /// (zero on a plan-cache hit); billed to the run's first execution.
    charged_overhead: SimTime,
    /// The pinned plan; `None` for the streaming baseline, which re-derives
    /// the kernel's structures on every call.
    plan: Option<Arc<PreparedPlan>>,
    costs: KernelCosts,
    /// Whether executing checks device liveness. Activations handed out by
    /// [`SeerEngine::activate_selected`] do; the one inside `execute` does not,
    /// since `execute` cannot fail.
    fenced: bool,
}

/// Where a selection's features come from: a live matrix (collection on
/// demand, memoized) or a benchmark record (features already measured).
enum FeatureSource<'m> {
    Live {
        matrix: &'m CsrMatrix,
        fingerprint: u64,
    },
    Record {
        record: &'m BenchmarkRecord,
    },
}

/// Everything one selection needs, independent of which of the four public
/// entry points produced it. All selection paths are a `SelectionCtx` plus a
/// [`SelectionPolicy`] fed through [`SeerEngine::decide`].
struct SelectionCtx<'m> {
    known: Vec<f64>,
    /// Workload length, for ranking devices by modelled total time.
    iterations: usize,
    source: FeatureSource<'m>,
}

/// The Seer runtime engine: the three trained models bound to a device
/// fleet, with per-matrix caching.
///
/// The engine is owned (`'static`) and `Send + Sync`; wrap it in an
/// [`Arc`] to serve selections from many threads. See the
/// [module docs](self) for the caching and fleet-placement model.
#[derive(Debug)]
pub struct SeerEngine {
    fleet: Fleet,
    models: Arc<SeerModels>,
    collector: FeatureCollector,
    /// Every per-matrix artifact — profile, features, selections, kernel
    /// costs, prepared plans — in one entry per sparsity fingerprint, so
    /// repeat traffic presenting regenerated or value-mutated matrices never
    /// re-profiles, re-selects or re-prepares.
    cache: RwLock<FingerprintCache>,
    /// Bounded structure-class index backing selection inheritance (see
    /// [`SeerEngine::set_structure_class_reuse`]); consulted only when
    /// `class_reuse` is enabled, populated by every Live from-scratch
    /// selection regardless so enabling reuse benefits from history.
    classes: Mutex<ClassIndex>,
    /// Whether a plan-cache miss may inherit a matching class's selection
    /// instead of running the cost-model sweep. Off by default: exact-match
    /// traffic behaves bit-identically to the pre-class engine.
    class_reuse: AtomicBool,
    /// Online recalibration state (see [`SeerEngine::set_recalibration`]):
    /// `None` (the default) means observed timings are discarded and every
    /// ranking runs on the raw models — the bit-identical legacy path.
    recalibration: RwLock<Option<Arc<Recalibration>>>,
    /// Device-attributable counter breakdowns, indexed by [`DeviceId`].
    /// Behind an `RwLock` so the table grows when a device joins the fleet
    /// at runtime; entries are `Arc`-shared so hot paths clone a handle out
    /// of a short read-lock section instead of holding the lock while
    /// counting.
    device_counters: RwLock<Vec<Arc<DeviceCounters>>>,
    /// The default device's hardware handle, cached at construction. Device
    /// 0 can never leave the fleet roster (the roster is append-only and the
    /// last live device cannot be retired before any other exists), so the
    /// handle stays valid for the engine's lifetime and lets
    /// [`SeerEngine::gpu`] keep returning a reference.
    default_gpu: Arc<Gpu>,
    /// Cached live-device snapshot, keyed by the fleet generation it was
    /// taken at: placement sweeps detect membership change by comparing
    /// [`Fleet::generation`] and refresh the snapshot instead of taking the
    /// roster lock on every ranking.
    live_roster: RwLock<(u64, Arc<[DeviceId]>)>,
    counters: Counters,
}

impl SeerEngine {
    /// Budgeted-clear default: how many distinct matrix contents the
    /// per-fingerprint cache holds before it is swept. Far above any test
    /// corpus; long-lived services facing unbounded distinct traffic get a
    /// bounded footprint instead of monotone growth.
    pub const DEFAULT_FINGERPRINT_BUDGET: u64 = 65_536;

    /// Creates a single-device engine from shared handles to a device and
    /// trained models — bit-identical to the pre-fleet engine.
    pub fn new(gpu: Arc<Gpu>, models: Arc<SeerModels>) -> Self {
        Self::with_fleet(Fleet::single(gpu), models)
    }

    /// Creates a fleet-aware engine: selections place each workload on the
    /// fleet device with the minimum modelled total time. With a
    /// single-device fleet this is exactly [`SeerEngine::new`].
    pub fn with_fleet(fleet: Fleet, models: Arc<SeerModels>) -> Self {
        let device_counters = fleet
            .ids()
            .map(|_| Arc::new(DeviceCounters::default()))
            .collect();
        let default_gpu = fleet.default_gpu();
        let live_roster = (fleet.generation(), Arc::from(fleet.live_ids()));
        Self {
            fleet,
            models,
            collector: FeatureCollector::new(),
            cache: RwLock::new(FingerprintCache::new()),
            classes: Mutex::new(ClassIndex::new()),
            class_reuse: AtomicBool::new(false),
            recalibration: RwLock::new(None),
            device_counters: RwLock::new(device_counters),
            default_gpu,
            live_roster: RwLock::new(live_roster),
            counters: Counters::default(),
        }
    }

    /// Creates an engine that takes ownership of a device and models.
    pub fn from_parts(gpu: Gpu, models: SeerModels) -> Self {
        Self::new(Arc::new(gpu), Arc::new(models))
    }

    /// Creates an engine from a finished training run.
    pub fn from_training(gpu: Arc<Gpu>, outcome: &TrainingOutcome) -> Self {
        Self::new(gpu, Arc::new(outcome.models.clone()))
    }

    /// Benchmarks `entries` on `gpu`, trains the three Seer models (Fig. 2)
    /// and wraps them in a ready-to-serve engine.
    ///
    /// # Errors
    ///
    /// Propagates training failures ([`SeerError::InsufficientData`] and
    /// model-fitting errors).
    pub fn train(
        gpu: Gpu,
        entries: &[DatasetEntry],
        config: &TrainingConfig,
    ) -> Result<(Self, TrainingOutcome), SeerError> {
        let outcome = train(&gpu, entries, config)?;
        let engine = Self::from_parts(gpu, outcome.models.clone());
        Ok((engine, outcome))
    }

    /// The fleet's default device — the only device of a single-device
    /// engine, and the device record-based selections resolve to.
    pub fn gpu(&self) -> &Gpu {
        &self.default_gpu
    }

    /// A shared handle to the default device, for callers spawning their
    /// own work.
    pub fn gpu_handle(&self) -> Arc<Gpu> {
        Arc::clone(&self.default_gpu)
    }

    /// The device fleet this engine places workloads on.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The hardware handle of one fleet device.
    ///
    /// # Panics
    ///
    /// Panics if `device` does not belong to this engine's fleet.
    pub fn device_gpu(&self, device: DeviceId) -> Arc<Gpu> {
        self.fleet.gpu(device)
    }

    fn read_cache(&self) -> RwLockReadGuard<'_, FingerprintCache> {
        self.cache.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_cache(&self) -> RwLockWriteGuard<'_, FingerprintCache> {
        self.cache.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The device-attributable counter cell of one fleet device, growing the
    /// table on first sight of a device that joined after this engine was
    /// built.
    fn device_counter(&self, device: DeviceId) -> Arc<DeviceCounters> {
        {
            let counters = self
                .device_counters
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(cell) = counters.get(device.index()) {
                return Arc::clone(cell);
            }
        }
        let mut counters = self
            .device_counters
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        while counters.len() <= device.index() {
            counters.push(Arc::new(DeviceCounters::default()));
        }
        Arc::clone(&counters[device.index()])
    }

    /// The current live-device placement snapshot, refreshed when the fleet
    /// generation has moved since the snapshot was taken. A static fleet
    /// (generation never bumps) resolves this to one cached `Arc` clone per
    /// ranking. The generation is loaded *before* the roster is read, so a
    /// concurrent membership change can only make the stored snapshot newer
    /// than its tag — never staler — and the next call refreshes again.
    fn live_devices(&self) -> Arc<[DeviceId]> {
        let generation = self.fleet.generation();
        {
            let cached = self
                .live_roster
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if cached.0 == generation {
                return Arc::clone(&cached.1);
            }
        }
        let fresh: Arc<[DeviceId]> = Arc::from(self.fleet.live_ids());
        let mut cached = self
            .live_roster
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *cached = (generation, Arc::clone(&fresh));
        fresh
    }

    /// The models backing this engine.
    pub fn models(&self) -> &SeerModels {
        &self.models
    }

    /// A shared handle to the models, for callers building sibling engines
    /// (e.g. a [`crate::serving::ServingPool`] over the same models).
    pub fn models_handle(&self) -> Arc<SeerModels> {
        Arc::clone(&self.models)
    }

    /// Snapshot of the cache and fallback counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            plan_hits: self.counters.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.counters.plan_misses.load(Ordering::Relaxed),
            feature_collections: self.counters.feature_collections.load(Ordering::Relaxed),
            profile_passes: self.counters.profile_passes.load(Ordering::Relaxed),
            misprediction_fallbacks: self
                .counters
                .misprediction_fallbacks
                .load(Ordering::Relaxed),
            plan_preparations: self.counters.plan_preparations.load(Ordering::Relaxed),
            cache_evictions: self.counters.cache_evictions.load(Ordering::Relaxed),
            plan_value_refreshes: self.counters.plan_value_refreshes.load(Ordering::Relaxed),
            class_hits: self.counters.class_hits.load(Ordering::Relaxed),
            inherited_selections: self.counters.inherited_selections.load(Ordering::Relaxed),
            class_evictions: self.counters.class_evictions.load(Ordering::Relaxed),
            timing_observations: self.counters.timing_observations.load(Ordering::Relaxed),
            corrections_applied: self.counters.corrections_applied.load(Ordering::Relaxed),
            explored_selections: self.counters.explored_selections.load(Ordering::Relaxed),
            correction_drift_millilog: self
                .recalibration_handle()
                .map_or(0, |recal| recal.max_drift_millilog()),
            resident_plan_bytes: self.read_cache().plan_bytes as u64,
        }
    }

    /// Per-device breakdown of the device-attributable counters, indexed by
    /// [`DeviceId`] registration order.
    ///
    /// A selection's hit/miss is attributed to the device it placed the
    /// workload on; preparations, prepared-plan evictions and resident plan
    /// bytes to the device in their cache key. Counters describing work
    /// *shared* across the fleet — profiling passes, feature collections,
    /// misprediction fallbacks — appear only in the aggregate
    /// [`SeerEngine::stats`] and are zero here, so those per-device
    /// attributable components always sum to their aggregate counterparts.
    /// The one asymmetric counter is `cache_evictions`: prepared-plan drops
    /// (LRU and budgeted sweeps alike) are attributed per device, but a
    /// budgeted fingerprint sweep additionally drops device-agnostic
    /// per-fingerprint entries that are counted in the aggregate alone, so
    /// after a sweep the aggregate may exceed the per-device sum by exactly
    /// those shared drops.
    pub fn device_stats(&self) -> Vec<EngineStats> {
        let mut resident = vec![0u64; self.fleet.len()];
        for slot in self.read_cache().slots() {
            if let Some(plan) = &slot.plan {
                resident[slot.device.index()] += plan.heap_bytes() as u64;
            }
        }
        self.fleet
            .ids()
            .map(|id| {
                let counters = self.device_counter(id);
                EngineStats {
                    plan_hits: counters.plan_hits.load(Ordering::Relaxed),
                    plan_misses: counters.plan_misses.load(Ordering::Relaxed),
                    plan_preparations: counters.plan_preparations.load(Ordering::Relaxed),
                    cache_evictions: counters.cache_evictions.load(Ordering::Relaxed),
                    resident_plan_bytes: resident.get(id.index()).copied().unwrap_or(0),
                    ..EngineStats::default()
                }
            })
            .collect()
    }

    /// The device-attributable counter breakdown of one fleet device (see
    /// [`SeerEngine::device_stats`]).
    ///
    /// # Panics
    ///
    /// Panics if `device` does not belong to this engine's fleet.
    pub fn stats_for(&self, device: DeviceId) -> EngineStats {
        let _ = self.fleet.status(device);
        self.device_stats()[device.index()]
    }

    /// Number of distinct selection plans currently cached.
    pub fn cached_plans(&self) -> usize {
        let cache = self.read_cache();
        cache
            .entries
            .values()
            .map(|entry| entry.selections.len())
            .sum()
    }

    /// Drops every cache entry and the structure-class index and resets the
    /// cache counters together, so stats describe the current
    /// cache generation: absent concurrent in-flight selections,
    /// `plan_hits + plan_misses` equals the selections served since the last
    /// clear.
    ///
    /// Bounded-footprint behaviour under unbounded distinct traffic is
    /// automatic (see [`SeerEngine::set_prepared_budget_bytes`] and
    /// [`SeerEngine::set_fingerprint_budget`]); an explicit clear remains
    /// useful to start a fresh stats generation. Callers tracking lifetime
    /// totals should snapshot [`SeerEngine::stats`] before clearing and
    /// accumulate with [`EngineStats::saturating_add`].
    pub fn clear_caches(&self) {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        // Reset the counters while the cache is locked, so a concurrent
        // select never observes a cleared cache with stale counters; the
        // dropped entries are freed once the lock is released.
        let mut cache = self.write_cache();
        let dropped = cache.take_entries();
        self.counters.reset();
        drop(cache);
        drop(dropped);
        // Corrections are learned cache state like any other: a new
        // generation starts back at trust-the-models.
        if let Some(recal) = self.recalibration_handle() {
            recal.reset();
        }
        for device in self
            .device_counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            device.reset();
        }
    }

    /// Narrowly invalidates everything cached for one device — called when
    /// the device retires from (or dies in) the fleet. Drops that device's
    /// kernel costs and prepared plans from every fingerprint's entry, and
    /// resets its learned recalibration factors to 1.0;
    /// every other device's plans, all [`MatrixProfile`]s, feature
    /// collections and selection plans survive, so surviving devices keep
    /// their warm state. Prepared-plan drops are counted as cache evictions
    /// (aggregate and per-device); kernel-cost drops, like a budgeted sweep's
    /// shared drops, are counted in the aggregate alone.
    ///
    /// Idempotent: a second call for the same device finds nothing to drop.
    ///
    /// # Panics
    ///
    /// Panics if `device` does not belong to this engine's fleet.
    pub fn invalidate_device(&self, device: DeviceId) {
        let _ = self.fleet.status(device);
        let mut dropped_costs = 0;
        let mut dropped_plans = Vec::new();
        {
            let mut guard = self.write_cache();
            let cache = &mut *guard;
            for entry in cache.entries.values_mut() {
                let mut kept = std::mem::take(&mut entry.kernels).into_vec();
                kept.retain(|slot| {
                    if slot.device != device {
                        return true;
                    }
                    dropped_costs += u64::from(slot.priced);
                    if let Some(plan) = &slot.plan {
                        cache.plan_bytes -= plan.heap_bytes();
                        dropped_plans.push(device);
                    }
                    false
                });
                entry.kernels = kept.into_boxed_slice();
            }
            cache.reindex_plans();
        }
        self.count_evictions(dropped_costs, &dropped_plans);
        // Departed devices take their learned corrections with them: a
        // factor learned for dead hardware must never steer a ranking again.
        if let Some(recal) = self.recalibration_handle() {
            recal.reset_device(device);
        }
    }

    /// Sets the byte budget of the prepared-plan cache and immediately evicts
    /// least-recently-used plans down to it. The default is a generous
    /// 64 MiB; serving deployments facing adversarial matrix cardinality can
    /// tighten it to bound the engine's resident footprint.
    pub fn set_prepared_budget_bytes(&self, budget: usize) {
        let evicted = {
            let mut cache = self.write_cache();
            cache.plan_budget = budget;
            // Even an immediate tightening leaves the hottest plan serving.
            cache.evict_plans()
        };
        self.count_evictions(0, &evicted);
    }

    /// Counts dropped cache items as evictions: `shared` items no device owns
    /// in the aggregate alone, and one prepared plan per entry of
    /// `plan_devices` both in the aggregate and against that device.
    fn count_evictions(&self, shared: u64, plan_devices: &[DeviceId]) {
        let total = shared + plan_devices.len() as u64;
        if total == 0 {
            return;
        }
        self.counters
            .cache_evictions
            .fetch_add(total, Ordering::Relaxed);
        for &device in plan_devices {
            self.device_counter(device)
                .cache_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current byte budget of the prepared-plan cache.
    pub fn prepared_budget_bytes(&self) -> usize {
        self.read_cache().plan_budget
    }

    /// Number of prepared plans currently cached.
    pub fn cached_prepared_plans(&self) -> usize {
        let cache = self.read_cache();
        cache.slots().filter(|slot| slot.plan.is_some()).count()
    }

    /// Sets the budgeted-clear threshold on distinct matrix contents: once a
    /// selection install leaves more than `budget` fingerprints cached, every
    /// cache entry (profiles, features, selections, kernel costs, prepared
    /// plans) is swept in one pass, and the dropped items are counted in
    /// [`EngineStats::cache_evictions`]. Counters other than the eviction
    /// tally are *not* reset — unlike [`SeerEngine::clear_caches`], a
    /// budgeted clear is an eviction event, not a new stats generation.
    pub fn set_fingerprint_budget(&self, budget: u64) {
        let budget = usize::try_from(budget.max(1)).unwrap_or(usize::MAX);
        self.write_cache().fingerprint_budget = budget;
    }

    /// Enables or disables structure-class selection inheritance.
    ///
    /// When enabled, a plan-cache miss first probes the bounded class index
    /// with the matrix's quantized [`StructureSignature`] (an O(rows) probe,
    /// memoized on the matrix): a hit inherits the cached class's
    /// `(kernel, device)` pair — skipping feature collection, the classifier
    /// walks and the fleet cost sweep entirely — and is counted in
    /// [`EngineStats::class_hits`] / [`EngineStats::inherited_selections`].
    /// The exact plan cache is always consulted *first*, so exact-match
    /// traffic replays bit-identical selections whether or not reuse is on.
    ///
    /// Inherited selections report zero collection and inference overheads
    /// (none were performed) and may disagree with a from-scratch selection
    /// near class-bucket boundaries; the differential gate in
    /// `tests/structure_class.rs` bounds that disagreement on the corpus.
    /// Off by default.
    pub fn set_structure_class_reuse(&self, enabled: bool) {
        self.class_reuse.store(enabled, Ordering::Relaxed);
    }

    /// Whether structure-class selection inheritance is enabled.
    pub fn structure_class_reuse(&self) -> bool {
        self.class_reuse.load(Ordering::Relaxed)
    }

    /// Number of structure classes currently indexed.
    pub fn cached_structure_classes(&self) -> usize {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// Sets the LRU capacity of the structure-class index (default 1024)
    /// and immediately evicts down to it.
    pub fn set_structure_class_capacity(&self, capacity: usize) {
        let mut classes = self.classes.lock().unwrap_or_else(PoisonError::into_inner);
        classes.capacity = capacity.max(1);
        let mut evicted = 0;
        while classes.map.len() > classes.capacity {
            let victim = classes
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key);
            let Some(victim) = victim else { break };
            classes.map.remove(&victim);
            evicted += 1;
        }
        if evicted > 0 {
            self.counters
                .class_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Enables (or, with `None`, disables) online recalibration: the engine
    /// records the observed total of every execute and maintains one EWMA
    /// correction factor (observed / modelled) per `(device, kernel)` pair,
    /// multiplying the modelled kernel totals during selection, warm-path
    /// re-ranking and fleet placement. See [`RecalibrationConfig`] for the
    /// smoothing, clamp and exploration knobs.
    ///
    /// Installing a configuration starts from fresh unity factors —
    /// corrections learned under a previous configuration are discarded.
    /// With recalibration disabled the engine is bit-identical to the
    /// pre-recalibration engine: no observation is recorded, no factor is
    /// consulted, and cached plans replay verbatim.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range knobs (see [`RecalibrationConfig`] field
    /// docs).
    pub fn set_recalibration(&self, config: Option<RecalibrationConfig>) {
        let handle = config.map(|config| Arc::new(Recalibration::new(config, self.fleet.len())));
        *self
            .recalibration
            .write()
            .unwrap_or_else(PoisonError::into_inner) = handle;
    }

    /// The active recalibration configuration, `None` while disabled.
    pub fn recalibration_config(&self) -> Option<RecalibrationConfig> {
        self.recalibration
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|recal| recal.config)
    }

    /// The current correction factor of one `(device, kernel)` pair: the
    /// EWMA of observed-over-modelled ratios, `1.0` while recalibration is
    /// disabled or before any observation of the pair.
    ///
    /// # Panics
    ///
    /// Panics if `device` does not belong to this engine's fleet.
    pub fn correction_factor(&self, device: DeviceId, kernel: KernelId) -> f64 {
        let _ = self.fleet.status(device);
        self.recalibration_handle()
            .map_or(1.0, |recal| recal.factor(device, kernel))
    }

    /// The engine's recalibration handle, if enabled.
    fn recalibration_handle(&self) -> Option<Arc<Recalibration>> {
        self.recalibration
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Selects a kernel for `matrix` and a workload of `iterations`
    /// iterations, following the classifier-selection flow of Fig. 3.
    ///
    /// Repeated calls with the same matrix content, iteration count and
    /// policy are answered from the plan cache with a bit-identical
    /// [`Selection`] and no recomputation.
    pub fn select(&self, matrix: &CsrMatrix, iterations: usize) -> Selection {
        self.select_with_policy(matrix, iterations, SelectionPolicy::Adaptive)
    }

    /// Selects a kernel using only the known-feature classifier (the "Known"
    /// predictor evaluated in Fig. 5).
    pub fn select_known_only(&self, matrix: &CsrMatrix, iterations: usize) -> Selection {
        self.select_with_policy(matrix, iterations, SelectionPolicy::KnownOnly)
    }

    /// Selects a kernel by always collecting features and consulting the
    /// gathered-feature classifier (the "Gathered" predictor of Fig. 5).
    pub fn select_gathered_only(&self, matrix: &CsrMatrix, iterations: usize) -> Selection {
        self.select_with_policy(matrix, iterations, SelectionPolicy::GatheredOnly)
    }

    /// Selects a kernel for `matrix` under an explicit [`SelectionPolicy`],
    /// consulting and filling the plan cache.
    pub fn select_with_policy(
        &self,
        matrix: &CsrMatrix,
        iterations: usize,
        policy: SelectionPolicy,
    ) -> Selection {
        self.select_with_policy_charged(matrix, iterations, policy)
            .0
    }

    /// Cache-aware selection core. Returns the plan plus the overhead that
    /// was actually incurred by *this call*: zero on a plan-cache replay,
    /// tree walks plus (only if the collection kernels really ran) the
    /// collection cost on a miss. The plan itself always reports its
    /// intrinsic costs, so cached replays stay bit-identical.
    ///
    /// The sparsity fingerprint is the cache key by design — every quantity
    /// a selection depends on (known features, gathered features, profile,
    /// cost models) reads the sparsity arrays alone, so a value-mutated
    /// matrix *hits* while a structurally-edited one misses. First contact
    /// with a matrix therefore pays one O(nnz) hash pass even on the
    /// known-features-only path; [`CsrMatrix::sparsity_fingerprint`]
    /// memoizes it, so the pass runs once per matrix value, not per call.
    ///
    /// Concurrent first contacts with one plan key all decide, but only the
    /// first to install its plan counts the miss and is billed; the others
    /// adopt the installed plan as hits billed zero, as
    /// [`SeerEngine::prepared_plan_on`] does for prepared plans. A serving
    /// pool calls this once per request at routing, so the request's bill
    /// does not depend on which worker later executes it.
    pub(crate) fn select_with_policy_charged(
        &self,
        matrix: &CsrMatrix,
        iterations: usize,
        policy: SelectionPolicy,
    ) -> (Selection, SimTime) {
        let fingerprint = matrix.sparsity_fingerprint();
        let key = SelectionKey { iterations, policy };
        let cached = self
            .read_cache()
            .entries
            .get(&fingerprint)
            .and_then(|entry| entry.selection(key));
        if let Some(plan) = cached {
            return (self.serve_hit(plan, matrix, iterations), SimTime::ZERO);
        }

        let class_key = || ClassKey {
            signature: matrix.structure_signature(),
            iterations,
            policy,
        };
        // Structure-class inheritance (opt-in): a fresh sparsity pattern
        // whose quantized signature matches an already-decided class adopts
        // that class's `(kernel, device)` pair, skipping feature collection,
        // the classifier walks and the fleet cost sweep — and, crucially,
        // the profiling pass, which is why the lookup's signature is probed.
        // The exact plan cache above always wins first, so exact repeats are
        // untouched by reuse.
        if self.class_reuse.load(Ordering::Relaxed) {
            let lookup_key = class_key();
            let inherited = self
                .classes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .lookup(&lookup_key);
            if let Some(entry) = inherited {
                self.counters.class_hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .inherited_selections
                    .fetch_add(1, Ordering::Relaxed);
                let selection = Selection {
                    kernel: entry.kernel,
                    device: entry.device,
                    used_gathered: entry.used_gathered,
                    // No collection ran and no trees were walked; the
                    // selection honestly reports zero overheads rather than
                    // replaying costs it never paid.
                    feature_collection_cost: SimTime::ZERO,
                    inference_overhead: SimTime::ZERO,
                };
                return self.install_plan(matrix, key, selection, SimTime::ZERO);
            }
        }

        let ctx = SelectionCtx {
            known: KnownFeatures::of(matrix, iterations).to_vector(),
            iterations,
            source: FeatureSource::Live {
                matrix,
                fingerprint,
            },
        };
        let (selection, collection_ran) = self.decide(ctx, policy);
        // Index this from-scratch selection's class whether or not reuse is
        // currently enabled, so flipping it on inherits from history. The
        // key is built only now: a fleet placement has profiled the pattern,
        // so its signature is that pass's by-product, not a second walk.
        let class_key = class_key();
        let evicted = self
            .classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                class_key,
                selection.kernel,
                selection.device,
                selection.used_gathered,
            );
        if evicted > 0 {
            self.counters
                .class_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        let charged = if collection_ran {
            selection.overhead()
        } else {
            selection.inference_overhead
        };
        self.install_plan(matrix, key, selection, charged)
    }

    /// Installs a freshly decided plan and counts the miss, billed
    /// `charged` — unless a concurrent first contact installed the key
    /// first, in which case this call adopts that plan as a hit billed zero.
    ///
    /// A fresh install may have introduced a new distinct matrix: once more
    /// fingerprints are cached than the fingerprint budget, the install
    /// sweeps every entry and counts the dropped items as evictions.
    fn install_plan(
        &self,
        matrix: &CsrMatrix,
        key: SelectionKey,
        selection: Selection,
        charged: SimTime,
    ) -> (Selection, SimTime) {
        let fingerprint = matrix.sparsity_fingerprint();
        let (adopted, swept) = {
            let mut cache = self.write_cache();
            let entry = cache.entries.entry(fingerprint).or_default();
            match entry.selection(key) {
                Some(plan) => (Some(plan), None),
                None => {
                    push_exact(&mut entry.selections, (key, selection));
                    let over = cache.entries.len() > cache.fingerprint_budget;
                    (None, over.then(|| cache.take_entries()))
                }
            }
        };
        if let Some(plan) = adopted {
            return (self.serve_hit(plan, matrix, key.iterations), SimTime::ZERO);
        }
        self.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
        self.device_counter(selection.device)
            .plan_misses
            .fetch_add(1, Ordering::Relaxed);
        if let Some(swept) = swept {
            let shared = swept.values().map(FingerprintEntry::shared_items).sum();
            let plans: Vec<DeviceId> = swept
                .values()
                .flat_map(FingerprintEntry::plan_devices)
                .collect();
            self.count_evictions(shared, &plans);
        }
        (selection, charged)
    }

    /// Serves one cached plan ([`SeerEngine::serve_cached`]) and counts the
    /// hit against the device it placed on.
    fn serve_hit(&self, plan: Selection, matrix: &CsrMatrix, iterations: usize) -> Selection {
        let fingerprint = matrix.sparsity_fingerprint();
        let served = self.serve_cached(plan, matrix, fingerprint, iterations);
        self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
        self.device_counter(served.device)
            .plan_hits
            .fetch_add(1, Ordering::Relaxed);
        served
    }

    /// Serves one plan-cache hit. With recalibration off — or on a
    /// single-device fleet, where there is nothing to re-place — the cached
    /// selection replays verbatim: the bit-identical legacy path. With
    /// recalibration on, the cached *kernel* is kept (the classifier's
    /// choice is a property of the matrix, not the fleet) but its placement
    /// is re-ranked through the corrected per-device models on every hit, so
    /// drift discovered since the plan was cached migrates the workload
    /// without invalidating the plan; a near-tie may additionally be
    /// diverted to the runner-up by the exploration policy. The plan cache
    /// itself is never rewritten — the cached entry stays the raw-model
    /// argmin, and corrections apply at serve time.
    fn serve_cached(
        &self,
        plan: Selection,
        matrix: &CsrMatrix,
        fingerprint: u64,
        iterations: usize,
    ) -> Selection {
        if self.fleet.is_single_device() {
            return plan;
        }
        let recal = self.recalibration_handle();
        if recal.is_none() && self.fleet.is_live(plan.device) {
            return plan;
        }
        // Re-rank when recalibration asks for it, or — recalibration or not
        // — when the cached placement points at a device that has since
        // retired or failed: the kernel choice survives, the placement
        // migrates to a live device.
        let (best, runner) = self.rank_corrected(
            matrix,
            fingerprint,
            plan.kernel,
            iterations,
            plan.used_gathered,
            plan.feature_collection_cost,
            plan.inference_overhead,
            recal.as_deref(),
        );
        let Some(recal) = recal else {
            return Selection {
                kernel: plan.kernel,
                device: best.device,
                used_gathered: plan.used_gathered,
                feature_collection_cost: best.collection_cost,
                inference_overhead: plan.inference_overhead,
            };
        };
        let served = match runner {
            Some(runner) if recal.near_tie(best.total, runner.total) && recal.explore() => {
                self.counters
                    .explored_selections
                    .fetch_add(1, Ordering::Relaxed);
                runner
            }
            _ => best,
        };
        Selection {
            kernel: plan.kernel,
            device: served.device,
            used_gathered: plan.used_gathered,
            feature_collection_cost: served.collection_cost,
            inference_overhead: plan.inference_overhead,
        }
    }

    /// Performs the Fig. 3 selection using the features already stored in a
    /// benchmark record (no re-collection), charging the recorded collection
    /// cost when the gathered path is taken.
    pub fn select_from_record(&self, record: &BenchmarkRecord) -> Selection {
        self.select_from_record_with_policy(record, SelectionPolicy::Adaptive)
    }

    /// Record-based selection under an explicit policy.
    ///
    /// Records carry their features with them, so this path never touches the
    /// feature or plan caches.
    pub fn select_from_record_with_policy(
        &self,
        record: &BenchmarkRecord,
        policy: SelectionPolicy,
    ) -> Selection {
        let ctx = SelectionCtx {
            known: record.known_vector(),
            iterations: record.iterations,
            source: FeatureSource::Record { record },
        };
        self.decide(ctx, policy).0
    }

    /// Modelled total workload time if Seer's selection is followed, reusing a
    /// benchmark record instead of re-measuring (used by the evaluation
    /// binaries so Fig. 5 sums stay consistent with training data).
    pub fn modelled_total_from_record(&self, record: &BenchmarkRecord) -> SimTime {
        let selection = self.select_from_record(record);
        selection.overhead() + record.total_of(selection.kernel)
    }

    /// Runs the full pipeline: select a kernel, execute it functionally and
    /// return the modelled end-to-end time of the workload.
    ///
    /// Selection overhead (feature collection + tree walks) is charged only
    /// when the plan is computed; a cache-replayed plan contributes kernel
    /// time alone, so repeated executions on the same matrix pay the
    /// selection cost once.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn execute(&self, matrix: &CsrMatrix, x: &[Scalar], iterations: usize) -> ExecutionOutcome {
        self.execute_with_policy(matrix, x, iterations, SelectionPolicy::Adaptive)
    }

    /// [`SeerEngine::execute`] under an explicit [`SelectionPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn execute_with_policy(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        policy: SelectionPolicy,
    ) -> ExecutionOutcome {
        let mut workspace = EngineWorkspace::new();
        let (selection, total_time) =
            self.execute_with_policy_into(matrix, x, iterations, policy, &mut workspace);
        ExecutionOutcome {
            selection,
            result: workspace.take_result(),
            total_time,
        }
    }

    /// Allocation-free [`SeerEngine::execute`]: the product vector and the
    /// kernel scratch live in the caller's [`EngineWorkspace`] and are reused
    /// across requests. Returns the selection and the modelled end-to-end
    /// time; the product is available as [`EngineWorkspace::result`].
    ///
    /// In steady state (the matrix's cache entry warm) a call performs
    /// zero heap allocations — the serving hot path the `profile_selection`
    /// bench pins.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn execute_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        workspace: &mut EngineWorkspace,
    ) -> (Selection, SimTime) {
        self.execute_with_policy_into(matrix, x, iterations, SelectionPolicy::Adaptive, workspace)
    }

    /// [`SeerEngine::execute_into`] under an explicit [`SelectionPolicy`].
    ///
    /// The chosen kernel runs through its cached [`PreparedPlan`]
    /// (materialized once per `(matrix, kernel)` on the first contact): the
    /// warm path replays the merge-path partition table / ELL slab / row bins
    /// instead of re-deriving them, stays allocation-free, and is
    /// bit-identical to the streaming execution.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn execute_with_policy_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        policy: SelectionPolicy,
        workspace: &mut EngineWorkspace,
    ) -> (Selection, SimTime) {
        self.execute_core(matrix, x, iterations, policy, true, workspace)
    }

    /// Pins the prepared plan for a selection already resolved, without
    /// executing anything: a serving pool selects and bills each request at
    /// routing and pins the plan when a worker dequeues it, once per run of
    /// same-fingerprint requests. The returned activation holds the pinned
    /// `Arc<PreparedPlan>` and the kernel's costs; executing it via
    /// [`SeerEngine::try_execute_activated_into`] skips the selection
    /// resolve and every cache lookup. `charged_overhead` is billed to the
    /// activation's first execution.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceFailed`] when the selected device is not live.
    pub(crate) fn activate_selected(
        &self,
        matrix: &CsrMatrix,
        selection: Selection,
        charged_overhead: SimTime,
    ) -> Result<PlanActivation, DeviceFailed> {
        self.fleet.ensure_live(selection.device)?;
        Ok(PlanActivation {
            fenced: true,
            ..self.pin(matrix, selection, charged_overhead, true)
        })
    }

    /// Executes one request against an existing [`PlanActivation`]: the
    /// compute and billing of [`SeerEngine::execute_with_policy_into`],
    /// minus the selection resolve and cache lookups the activation already
    /// paid, and fenced on device liveness. `first` decides whether this
    /// execution is billed the activation's charged selection overhead
    /// (exactly once per activation, on the first executed request) or
    /// replays as a pure plan hit (zero overhead) — the same billing a
    /// sequential stream of identical requests sees.
    ///
    /// An execution routed to a device that has failed or retired —
    /// including one killed *while the kernel was in flight* — returns a
    /// typed [`DeviceFailed`] instead of silently computing on dead
    /// hardware; the caller (the serving pool's retry path) decides whether
    /// to re-activate elsewhere. On an error the workspace contents are
    /// unspecified and no timing observation is recorded — a dead device
    /// teaches the recalibration layer nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceFailed`] when the activation's device died between
    /// activation and dispatch, or mid-execution.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub(crate) fn try_execute_activated_into(
        &self,
        activation: &PlanActivation,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        first: bool,
        workspace: &mut EngineWorkspace,
    ) -> Result<(Selection, SimTime), DeviceFailed> {
        let total = self.compute_and_bill(activation, matrix, x, iterations, first, workspace)?;
        Ok((activation.selection, total))
    }

    /// The PR-3-era streaming execute: identical selection, billing and
    /// result to [`SeerEngine::execute_with_policy_into`], but the kernel
    /// re-derives its auxiliary structures on every call instead of replaying
    /// a prepared plan (and builds none). Kept as the differential baseline
    /// the `profile_selection` bench measures the prepared path against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn execute_streaming_with_policy_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        policy: SelectionPolicy,
        workspace: &mut EngineWorkspace,
    ) -> (Selection, SimTime) {
        self.execute_core(matrix, x, iterations, policy, false, workspace)
    }

    /// [`SeerEngine::execute_streaming_with_policy_into`] under the adaptive
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    pub fn execute_streaming_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        workspace: &mut EngineWorkspace,
    ) -> (Selection, SimTime) {
        self.execute_streaming_with_policy_into(
            matrix,
            x,
            iterations,
            SelectionPolicy::Adaptive,
            workspace,
        )
    }

    /// The one execute sequence: select (one cache lookup), pin the plan —
    /// unless `prepared` is false, for the streaming baseline — and the
    /// costs (one more), then compute and bill. Only the selection work
    /// that actually ran on this call is billed: nothing for a plan replay,
    /// tree walks alone when the gathered features came from the cache. The
    /// returned selection still reports the plan's intrinsic costs.
    fn execute_core(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        policy: SelectionPolicy,
        prepared: bool,
        workspace: &mut EngineWorkspace,
    ) -> (Selection, SimTime) {
        let (selection, charged_overhead) =
            self.select_with_policy_charged(matrix, iterations, policy);
        let activation = self.pin(matrix, selection, charged_overhead, prepared);
        let total = self.compute_and_bill(&activation, matrix, x, iterations, true, workspace);
        (
            selection,
            total.expect("an unfenced activation never fails"),
        )
    }

    /// Pins what executing `selection` on `matrix` needs, in one cache
    /// lookup on the warm path: the `(device, kernel)` costs and, when
    /// `prepared`, the prepared plan (materialized once per `(matrix,
    /// device, kernel)` on the first contact, so the warm path replays the
    /// merge-path partition table / ELL slab / row bins instead of
    /// re-deriving them).
    fn pin(
        &self,
        matrix: &CsrMatrix,
        selection: Selection,
        charged_overhead: SimTime,
        prepared: bool,
    ) -> PlanActivation {
        let (costs, plan) =
            self.kernel_slot(matrix, selection.device, selection.kernel, true, prepared);
        PlanActivation {
            selection,
            charged_overhead,
            plan,
            costs: costs.expect("the costs were asked for"),
            fenced: false,
        }
    }

    /// Computes `matrix * x` into the workspace through the activation's
    /// plan (streaming when it pinned none) and bills it: the activation's
    /// charged overhead when `first`, plus the observed kernel total. A
    /// fenced activation whose device is not live before or after the
    /// kernel fails typed, with nothing billed or observed.
    fn compute_and_bill(
        &self,
        activation: &PlanActivation,
        matrix: &CsrMatrix,
        x: &[Scalar],
        iterations: usize,
        first: bool,
        workspace: &mut EngineWorkspace,
    ) -> Result<SimTime, DeviceFailed> {
        let selection = &activation.selection;
        let fence = || match activation.fenced {
            true => self.fleet.ensure_live(selection.device),
            false => Ok(()),
        };
        fence()?;
        workspace.y.resize(matrix.rows(), 0.0);
        let kernel = kernel(selection.kernel);
        let (y, scratch) = (&mut workspace.y, &mut workspace.scratch);
        match &activation.plan {
            Some(plan) => kernel.compute_prepared_into(plan, matrix, x, y, scratch),
            None => kernel.compute_into(matrix, x, y, scratch),
        }
        fence()?;
        let charged = first.then_some(activation.charged_overhead);
        Ok(charged.unwrap_or(SimTime::ZERO)
            + self.observe_execution(selection, activation.costs, iterations))
    }

    /// The matrix's fused profile, answered from (and installed into) its
    /// cache entry. Exactly one profiling pass runs per distinct matrix
    /// content, even across regenerated values.
    fn profile_for(&self, matrix: &CsrMatrix, fingerprint: u64) -> Arc<MatrixProfile> {
        let cached = self
            .read_cache()
            .entries
            .get(&fingerprint)
            .and_then(|entry| entry.profile.clone());
        if let Some(profile) = cached {
            return profile;
        }
        // Count only passes this call actually ran: the tracked accessor
        // reports `true` for exactly one caller per matrix value, so
        // concurrent cold selections cannot double-count a single pass.
        let (profile, computed) = matrix.profile_handle_tracked();
        if computed {
            self.counters.profile_passes.fetch_add(1, Ordering::Relaxed);
        }
        let mut cache = self.write_cache();
        let entry = cache.entries.entry(fingerprint).or_default();
        Arc::clone(entry.profile.get_or_insert(profile))
    }

    /// Iteration-independent modelled costs of `kernel_id` on `matrix` when
    /// run on `device` — the cost models read the profile and structure
    /// alone, so cached costs survive value mutation. Every device's costs
    /// derive from the same shared [`MatrixProfile`], so a fleet-wide
    /// ranking never profiles the matrix more than once.
    fn kernel_costs_on(
        &self,
        matrix: &CsrMatrix,
        device: DeviceId,
        kernel_id: KernelId,
    ) -> KernelCosts {
        let (costs, _) = self.kernel_slot(matrix, device, kernel_id, true, false);
        costs.expect("the costs were asked for")
    }

    /// [`SeerEngine::prepared_plan_on`] for the fleet's default device — the
    /// only device of a single-device engine.
    pub fn prepared_plan(&self, matrix: &CsrMatrix, kernel_id: KernelId) -> Arc<PreparedPlan> {
        self.prepared_plan_on(matrix, self.fleet.default_device(), kernel_id)
    }

    /// The prepared execution plan of `kernel_id` on `matrix` for `device`,
    /// answered from (and installed into) the byte-budgeted plan cache, keyed
    /// by `(sparsity fingerprint, device, kernel)`. A warm lookup is a
    /// short-held lock, a hash probe and an `Arc` clone: no allocation. A
    /// cold build runs with **no** lock held, so warm traffic on other
    /// matrices is never convoyed behind an O(nnz) preparation; when
    /// concurrent first contacts race, the winner's plan is installed and
    /// counted and the losers adopt it (their duplicate build is discarded),
    /// keeping [`EngineStats::plan_preparations`] at exactly one per cached
    /// key.
    ///
    /// Structure-only plans (merge-path tables, row bins, COO expansions,
    /// direct plans) survive value mutation untouched. The ELL slab embeds
    /// value bits, so a cached slab whose values key no longer matches the
    /// matrix is rebuilt in place — no profile pass (the profile is
    /// cached), no selection, counted in
    /// [`EngineStats::plan_value_refreshes`] rather than as a preparation.
    /// Alternating two value versions of one sparsity pattern therefore
    /// refreshes on every swap; callers doing that should hold their own
    /// plan handles.
    ///
    /// # Panics
    ///
    /// Panics if `device` does not belong to this engine's fleet.
    pub fn prepared_plan_on(
        &self,
        matrix: &CsrMatrix,
        device: DeviceId,
        kernel_id: KernelId,
    ) -> Arc<PreparedPlan> {
        let _ = self.fleet.status(device);
        let (_, plan) = self.kernel_slot(matrix, device, kernel_id, false, true);
        plan.expect("the plan was asked for")
    }

    /// The cached costs (when `want_costs`) and current prepared plan (when
    /// `want_plan`) of one `(device, kernel)` slot of `matrix`: one lookup on
    /// the warm path. Whatever is wanted and missing is built with no lock
    /// held and then installed. Costs are pure, so racing builders agree; a
    /// built plan is counted as a preparation (or, replacing one with stale
    /// values, a refresh) only by the first installer, and racers adopt the
    /// installed plan. Each install evicts plans down to the byte budget.
    fn kernel_slot(
        &self,
        matrix: &CsrMatrix,
        device: DeviceId,
        kernel_id: KernelId,
        want_costs: bool,
        want_plan: bool,
    ) -> (Option<KernelCosts>, Option<Arc<PreparedPlan>>) {
        let (costs, plan) = self
            .read_cache()
            .lookup(matrix, device, kernel_id, want_plan);
        let build_costs = want_costs && costs.is_none();
        let build_plan = want_plan && plan.is_none();
        if !build_costs && !build_plan {
            return (costs, plan);
        }
        let fingerprint = matrix.sparsity_fingerprint();
        let profile = self.profile_for(matrix, fingerprint);
        let kernel = kernel(kernel_id);
        let built_costs = build_costs.then(|| {
            let gpu = self.fleet.gpu(device);
            KernelCosts {
                preprocessing: kernel.preprocessing_time(&gpu, matrix, &profile),
                per_iteration: kernel.iteration_timing(&gpu, matrix, &profile).total,
            }
        });
        let built_plan = build_plan.then(|| Arc::new(kernel.prepare(matrix, &profile)));

        let mut guard = self.write_cache();
        let cache = &mut *guard;
        let tick = cache.tick();
        let entry = cache.entries.entry(fingerprint).or_default();
        let indexed = entry.holds_plan();
        let slot = entry.kernel_or_insert(device, kernel_id);
        if let Some(built) = built_costs.filter(|_| !slot.priced) {
            slot.costs = built;
            slot.priced = true;
        }
        // Costs found by the lookup above stay valid even if a sweep has
        // emptied the slot since: they are a pure function of the pattern.
        let costs = costs.or(built_costs);
        let Some(built) = built_plan else {
            return (costs, plan);
        };
        *slot.last_used.get_mut() = tick;
        let refreshed = match &slot.plan {
            // A concurrent first contact (or refresh) installed a
            // serviceable plan while we built ours; adopt it so the
            // counters stay exact.
            Some(installed) if installed.values_current(matrix) => {
                return (costs, Some(Arc::clone(installed)));
            }
            Some(stale) => {
                cache.plan_bytes -= stale.heap_bytes();
                true
            }
            None => false,
        };
        cache.plan_bytes += built.heap_bytes();
        slot.plan = Some(Arc::clone(&built));
        if !indexed {
            cache.planned.push(fingerprint);
        }
        let evicted = cache.evict_plans();
        drop(guard);
        let built_count = if refreshed {
            &self.counters.plan_value_refreshes
        } else {
            let device_count = self.device_counter(device);
            device_count
                .plan_preparations
                .fetch_add(1, Ordering::Relaxed);
            &self.counters.plan_preparations
        };
        built_count.fetch_add(1, Ordering::Relaxed);
        self.count_evictions(0, &evicted);
        (costs, Some(built))
    }

    /// Selects kernels for a batch of `(matrix, iterations)` requests.
    ///
    /// Results are returned in request order. Duplicate matrices inside one
    /// batch hit the plan cache just like repeated single calls, so a batch
    /// of N requests over one distinct matrix pays for one selection.
    pub fn select_batch(&self, requests: &[(&CsrMatrix, usize)]) -> Vec<Selection> {
        requests
            .iter()
            .map(|&(matrix, iterations)| self.select(matrix, iterations))
            .collect()
    }

    /// Maps a known-feature classifier output to a kernel, counting (and, in
    /// debug builds, rejecting) out-of-range classes.
    pub fn predict_known(&self, known_vector: &[f64]) -> KernelId {
        self.kernel_from_class(self.models.known.predict(known_vector))
    }

    /// Maps a gathered-feature classifier output to a kernel, counting (and,
    /// in debug builds, rejecting) out-of-range classes.
    pub fn predict_gathered(&self, gathered_vector: &[f64]) -> KernelId {
        self.kernel_from_class(self.models.gathered.predict(gathered_vector))
    }

    /// The single selection routine behind every public entry point: charge
    /// the tree walks the policy requires, resolve gathered features from the
    /// context's source when needed, map the winning class to a kernel, and
    /// place the workload on the fleet device with the minimum modelled
    /// total time.
    fn decide(&self, ctx: SelectionCtx<'_>, policy: SelectionPolicy) -> (Selection, bool) {
        let mut tree_nodes = 0;
        let gather = match policy {
            SelectionPolicy::Adaptive => {
                tree_nodes += self.models.selector.decision_path_length(&ctx.known);
                self.models.selector.predict(&ctx.known) == 1
            }
            SelectionPolicy::KnownOnly => false,
            SelectionPolicy::GatheredOnly => true,
        };
        let mut collection_ran = false;
        let (kernel, collection_cost) = if gather {
            let (gathered, cost, ran) = self.gathered_vector(&ctx);
            collection_ran = ran;
            tree_nodes += self.models.gathered.decision_path_length(&gathered);
            (
                self.kernel_from_class(self.models.gathered.predict(&gathered)),
                cost,
            )
        } else {
            tree_nodes += self.models.known.decision_path_length(&ctx.known);
            (
                self.kernel_from_class(self.models.known.predict(&ctx.known)),
                SimTime::ZERO,
            )
        };
        let inference = inference_overhead(tree_nodes);
        let (device, collection_cost) =
            self.place(&ctx, kernel, gather, collection_cost, inference);
        let selection = Selection {
            kernel,
            device,
            used_gathered: gather,
            feature_collection_cost: collection_cost,
            inference_overhead: inference,
        };
        (selection, collection_ran)
    }

    /// Fleet placement: evaluates the chosen kernel's modelled total time —
    /// device-specific feature-collection cost (when the gathered path was
    /// taken) + tree-walk overhead + preprocessing + `iterations` x
    /// per-iteration — on every fleet device and returns the argmin device
    /// together with the collection cost modelled on it. Ties break toward
    /// the lowest [`DeviceId`], so placement is deterministic. With
    /// recalibration enabled the per-device kernel totals are multiplied by
    /// the learned correction factors first.
    ///
    /// Single-device fleets skip the ranking entirely (the argmin over one
    /// candidate needs no cost models), which is what keeps them bit-for-bit
    /// identical to the pre-fleet engine: no extra profiling pass, no cost
    /// evaluation on the known-only selection path. Record-based contexts
    /// carry no matrix to rank with; they resolve to the default device
    /// unless recalibration is on, in which case the recorded kernel total
    /// is ranked through the corrected models (see
    /// [`SeerEngine::place_record`]).
    fn place(
        &self,
        ctx: &SelectionCtx<'_>,
        kernel_id: KernelId,
        gather: bool,
        default_collection_cost: SimTime,
        inference: SimTime,
    ) -> (DeviceId, SimTime) {
        let default_device = self.fleet.default_device();
        if self.fleet.is_single_device() {
            return (default_device, default_collection_cost);
        }
        let recal = self.recalibration_handle();
        match ctx.source {
            FeatureSource::Live {
                matrix,
                fingerprint,
            } => {
                let (best, _runner) = self.rank_corrected(
                    matrix,
                    fingerprint,
                    kernel_id,
                    ctx.iterations,
                    gather,
                    default_collection_cost,
                    inference,
                    recal.as_deref(),
                );
                (best.device, best.collection_cost)
            }
            FeatureSource::Record { record } => {
                let device = match recal.as_deref() {
                    Some(recal) => self.place_record(record, kernel_id, recal),
                    None => default_device,
                };
                (device, default_collection_cost)
            }
        }
    }

    /// The fleet cost sweep shared by cold placement and warm re-ranking:
    /// prices `kernel_id` on every fleet device (collection cost plus
    /// inference plus corrected kernel total) and returns the argmin
    /// candidate plus the runner-up (for the exploration policy).
    /// Strictly-less comparisons keep the lowest-id tie-break, and a unit
    /// correction factor leaves the modelled total bit-identical (`t * 1.0
    /// == t` is exact in IEEE 754, and the multiplication is skipped
    /// anyway), so with `recal = None` — or all-unity factors — this is
    /// exactly the legacy ranking.
    ///
    /// Only live devices are candidates: a static fleet's live set is its
    /// whole roster (bit-identical iteration order), while retired and
    /// failed devices drop out of the sweep the moment the membership
    /// generation bumps. If *no* device is live the sweep degrades to the
    /// default device so selection stays total — execution then surfaces the
    /// failure as a typed [`seer_gpu::DeviceFailed`].
    #[allow(clippy::too_many_arguments)]
    fn rank_corrected(
        &self,
        matrix: &CsrMatrix,
        fingerprint: u64,
        kernel_id: KernelId,
        iterations: usize,
        gather: bool,
        default_collection_cost: SimTime,
        inference: SimTime,
        recal: Option<&Recalibration>,
    ) -> (RankedDevice, Option<RankedDevice>) {
        let default_device = self.fleet.default_device();
        let live = self.live_devices();
        let candidates: &[DeviceId] = if live.is_empty() {
            std::slice::from_ref(&default_device)
        } else {
            &live
        };
        let profile = self.profile_for(matrix, fingerprint);
        let mut best: Option<RankedDevice> = None;
        let mut runner: Option<RankedDevice> = None;
        let mut corrected = false;
        for &device in candidates {
            let collection_cost = if !gather {
                SimTime::ZERO
            } else if device == default_device {
                // The cached (or recorded) cost was modelled on the default
                // device; reusing it keeps that candidate bit-stable.
                default_collection_cost
            } else {
                self.collector
                    .collection_cost_with(&self.fleet.gpu(device), matrix, &profile)
            };
            let costs = self.kernel_costs_on(matrix, device, kernel_id);
            let mut kernel_total = costs.total_at(kernel_id, iterations);
            if let Some(recal) = recal {
                let factor = recal.factor(device, kernel_id);
                if factor != 1.0 {
                    corrected = true;
                    kernel_total = kernel_total * factor;
                }
            }
            let candidate = RankedDevice {
                device,
                collection_cost,
                total: collection_cost + inference + kernel_total,
            };
            match best {
                None => best = Some(candidate),
                Some(leader) if candidate.total < leader.total => {
                    runner = best;
                    best = Some(candidate);
                }
                Some(_) => match runner {
                    Some(second) if candidate.total >= second.total => {}
                    _ => runner = Some(candidate),
                },
            }
        }
        if corrected {
            self.counters
                .corrections_applied
                .fetch_add(1, Ordering::Relaxed);
        }
        (best.expect("fleets are non-empty by construction"), runner)
    }

    /// Fleet-aware record placement: a [`BenchmarkRecord`] carries no matrix
    /// to run the per-device cost models over, but its recorded kernel total
    /// *can* be ranked through the learned per-device correction factors —
    /// the record stands in for the modelled total and each device's factor
    /// says how that device actually performs relative to the models. With
    /// all-unity factors every device ties and the lowest-id tie-break
    /// resolves to the default device, the legacy record behaviour.
    fn place_record(
        &self,
        record: &BenchmarkRecord,
        kernel_id: KernelId,
        recal: &Recalibration,
    ) -> DeviceId {
        let recorded = record.total_of(kernel_id);
        let mut best = self.fleet.default_device();
        let mut best_total: Option<SimTime> = None;
        let mut corrected = false;
        for device in self.live_devices().iter().copied() {
            let factor = recal.factor(device, kernel_id);
            let total = if factor == 1.0 {
                recorded
            } else {
                corrected = true;
                recorded * factor
            };
            if best_total.is_none_or(|b| total < b) {
                best = device;
                best_total = Some(total);
            }
        }
        if corrected {
            self.counters
                .corrections_applied
                .fetch_add(1, Ordering::Relaxed);
        }
        best
    }

    /// The observed total of one executed workload: the modelled total of
    /// the `(device, kernel)` that ran, scaled by the device's injected
    /// true-timing factor ([`Fleet::set_true_timing_factor`]). The result is
    /// fed to the recalibration layer (when enabled) and returned for
    /// billing. With no injected perturbation the factor is `1.0` and the
    /// scaling is skipped entirely, so billed totals stay bit-identical to
    /// the pre-recalibration engine.
    fn observe_execution(
        &self,
        selection: &Selection,
        costs: KernelCosts,
        iterations: usize,
    ) -> SimTime {
        let modelled = costs.total_at(selection.kernel, iterations);
        let factor = self.fleet.true_timing_factor(selection.device);
        let observed = if factor == 1.0 {
            modelled
        } else {
            modelled * factor
        };
        self.record_observation(selection.device, selection.kernel, modelled, observed);
        observed
    }

    /// Feeds one observed execution total back into the recalibration layer.
    /// A no-op while recalibration is disabled; degenerate observations
    /// (zero or non-finite modelled or observed totals, e.g. a zero-row
    /// matrix) are discarded rather than folded into a factor.
    fn record_observation(
        &self,
        device: DeviceId,
        kernel: KernelId,
        modelled: SimTime,
        observed: SimTime,
    ) {
        let Some(recal) = self.recalibration_handle() else {
            return;
        };
        let modelled = modelled.as_nanos();
        let observed = observed.as_nanos();
        if !modelled.is_finite() || modelled <= 0.0 || !observed.is_finite() || observed <= 0.0 {
            return;
        }
        let ratio = observed / modelled;
        if !ratio.is_finite() {
            return;
        }
        recal.observe(device, kernel, ratio);
        self.counters
            .timing_observations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The full gathered-path feature vector (known ++ gathered), the
    /// intrinsic collection cost of the plan, and whether the collection
    /// kernels actually ran on this call (false on a feature-cache replay or
    /// a record-based context).
    fn gathered_vector(&self, ctx: &SelectionCtx<'_>) -> (Vec<f64>, SimTime, bool) {
        let (features, cost, ran) = match ctx.source {
            FeatureSource::Live {
                matrix,
                fingerprint,
            } => {
                let (collection, ran) = self.collect_cached(matrix, fingerprint);
                (collection.features.to_vector(), collection.cost, ran)
            }
            FeatureSource::Record { record } => {
                (record.gathered.to_vector(), record.collection_cost, false)
            }
        };
        let mut gathered = ctx.known.clone();
        gathered.extend(features);
        (gathered, cost, ran)
    }

    /// Runs the feature-collection kernels at most once per distinct matrix.
    /// The boolean is `true` when the kernels ran on this call (a cache miss).
    ///
    /// The statistics come out of the shared fused profile (one traversal per
    /// distinct matrix, via [`SeerEngine::profile_for`]) rather than a
    /// dedicated row sweep. The cached collection *cost* is modelled on the
    /// fleet's default device; [`SeerEngine::place`] re-prices it per device
    /// when ranking a multi-device fleet (the statistics themselves are
    /// device-independent and shared).
    fn collect_cached(&self, matrix: &CsrMatrix, fingerprint: u64) -> (FeatureCollection, bool) {
        let cached = self
            .read_cache()
            .entries
            .get(&fingerprint)
            .and_then(|entry| entry.features.as_deref().copied());
        if let Some(collection) = cached {
            return (collection, false);
        }
        let profile = self.profile_for(matrix, fingerprint);
        let collection = self.collector.collect(&self.default_gpu, matrix, &profile);
        self.counters
            .feature_collections
            .fetch_add(1, Ordering::Relaxed);
        let mut cache = self.write_cache();
        let entry = cache.entries.entry(fingerprint).or_default();
        entry.features.get_or_insert_with(|| Box::new(collection));
        (collection, true)
    }

    /// The one place an out-of-range model output can reach a kernel choice:
    /// debug builds treat it as a model/registry mismatch and abort, release
    /// builds count the fallback and launch the paper's default kernel.
    fn kernel_from_class(&self, class: usize) -> KernelId {
        KernelId::from_class_index(class).unwrap_or_else(|| {
            debug_assert!(
                false,
                "classifier produced class {class}, but only {} kernels are registered",
                KernelId::ALL.len()
            );
            self.counters
                .misprediction_fallbacks
                .fetch_add(1, Ordering::Relaxed);
            KernelId::CsrAdaptive
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_sparse::collection::{generate, CollectionConfig};

    fn engine_and_collection() -> (SeerEngine, Vec<DatasetEntry>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        (engine, entries)
    }

    #[test]
    fn engine_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SeerEngine>();
    }

    #[test]
    fn selection_returns_valid_kernel_and_overheads() {
        let (engine, entries) = engine_and_collection();
        for entry in entries.iter().take(6) {
            let selection = engine.select(&entry.matrix, 1);
            assert!(KernelId::ALL.contains(&selection.kernel));
            assert!(selection.inference_overhead.as_nanos() > 0.0);
            if selection.used_gathered {
                assert!(selection.feature_collection_cost.as_nanos() > 0.0);
            } else {
                assert_eq!(selection.feature_collection_cost, SimTime::ZERO);
            }
        }
    }

    #[test]
    fn repeated_select_hits_the_plan_cache_exactly() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[0].matrix;

        let first = engine.select(matrix, 19);
        let after_first = engine.stats();
        assert_eq!(after_first.plan_hits, 0);
        assert_eq!(after_first.plan_misses, 1);

        let second = engine.select(matrix, 19);
        let after_second = engine.stats();
        // Bit-identical replay, one hit, no extra miss, no extra collection.
        assert_eq!(first, second);
        assert_eq!(after_second.plan_hits, 1);
        assert_eq!(after_second.plan_misses, 1);
        assert_eq!(
            after_second.feature_collections,
            after_first.feature_collections
        );
        assert_eq!(engine.cached_plans(), 1);
    }

    #[test]
    fn different_iterations_or_policy_are_distinct_plans() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[0].matrix;
        engine.select(matrix, 1);
        engine.select(matrix, 19);
        engine.select_known_only(matrix, 1);
        engine.select_gathered_only(matrix, 1);
        let stats = engine.stats();
        assert_eq!(stats.plan_misses, 4);
        assert_eq!(stats.plan_hits, 0);
        assert_eq!(engine.cached_plans(), 4);
        // The gathered collection itself is shared across plans: at most one
        // collection ran for this matrix no matter how many plans needed it.
        assert!(stats.feature_collections <= 1);
    }

    #[test]
    fn value_mutation_replays_the_plan_and_structural_change_misses() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[0].matrix;
        let first = engine.select(matrix, 1);

        // Same structure, one value changed: selections are functions of the
        // sparsity pattern alone, so this replays the cached plan.
        let mut values = matrix.values().to_vec();
        values[0] += 0.5;
        let mutated = CsrMatrix::try_new(
            matrix.rows(),
            matrix.cols(),
            matrix.row_offsets().to_vec(),
            matrix.col_indices().to_vec(),
            values,
        )
        .unwrap();
        let replayed = engine.select(&mutated, 1);
        assert_eq!(first, replayed);
        let stats = engine.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 1);

        // A structural edit is a different sparsity pattern: plan miss.
        let mut delta = matrix.clone().into_delta();
        delta.set_row(0, &[], &[]);
        let restructured = delta.finish().unwrap();
        engine.select(&restructured, 1);
        let stats = engine.stats();
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.plan_hits, 1);

        // A regenerated bit-identical matrix is the same structure: hit.
        let clone = matrix.clone();
        engine.select(&clone, 1);
        assert_eq!(engine.stats().plan_hits, 2);
    }

    #[test]
    fn in_place_value_mutation_stays_fully_warm() {
        let (engine, entries) = engine_and_collection();
        let mut matrix = entries[0].matrix.clone();
        let x: Vec<f64> = (0..matrix.cols()).map(|i| (i % 3) as f64 - 1.0).collect();
        let mut workspace = EngineWorkspace::new();

        let (cold_selection, _) = engine.execute_into(&matrix, &x, 19, &mut workspace);
        let warm = engine.stats();
        assert_eq!(warm.plan_misses, 1);

        // Mutate the values in place: zero profile passes, zero plan
        // preparations, zero feature collections from here on — the
        // acceptance criterion of the incremental-update layer.
        let doubled: Vec<f64> = matrix.values().iter().map(|v| v * 2.0).collect();
        matrix.update_values(&doubled).unwrap();
        let (mutated_selection, _) = engine.execute_into(&matrix, &x, 19, &mut workspace);
        let after = engine.stats();
        assert_eq!(mutated_selection, cold_selection);
        assert_eq!(after.plan_misses, warm.plan_misses);
        assert_eq!(after.profile_passes, warm.profile_passes);
        assert_eq!(after.plan_preparations, warm.plan_preparations);
        assert_eq!(after.feature_collections, warm.feature_collections);
        // The result reflects the *new* values (doubling the matrix doubles
        // the product), not the stale pre-mutation bits.
        let reference = matrix.spmv(&x);
        for (got, want) in workspace.result().iter().zip(&reference) {
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn clear_caches_resets_plans_and_counters_together() {
        let (engine, entries) = engine_and_collection();
        engine.select(&entries[0].matrix, 1);
        assert_eq!(engine.cached_plans(), 1);
        engine.clear_caches();
        assert_eq!(engine.cached_plans(), 0);
        assert_eq!(engine.stats(), EngineStats::default());
        // After the reset the counters describe the new cache generation: the
        // next select on a cleared cache is a miss again.
        engine.select(&entries[0].matrix, 1);
        let stats = engine.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 0);
    }

    #[test]
    fn stats_never_underflow_across_interleaved_clears() {
        let (engine, entries) = engine_and_collection();
        let mut lifetime = EngineStats::default();
        let mut before = engine.stats();
        for round in 0..4 {
            for entry in entries.iter().take(3 + round) {
                engine.select(&entry.matrix, 1);
                engine.select(&entry.matrix, 19);
                engine.select(&entry.matrix, 19);
            }
            let after = engine.stats();
            let delta = after.saturating_sub(before);
            // Every delta component is sane (u64 can't be negative, so the
            // underflow symptom would be a huge wrapped value).
            assert!(delta.plan_hits <= after.selections());
            assert!(delta.plan_misses <= after.selections());
            assert_eq!(
                delta.selections(),
                3 * (3 + round) as u64,
                "round {round} served exactly its requests"
            );
            lifetime = lifetime.saturating_add(delta);
            engine.clear_caches();
            // A snapshot diffed across the reset saturates at zero instead of
            // wrapping to u64::MAX.
            let across_reset = engine.stats().saturating_sub(after);
            assert_eq!(across_reset, EngineStats::default());
            before = engine.stats();
        }
        assert_eq!(lifetime.selections(), (3 * (3 + 4 + 5 + 6)) as u64);
        assert_eq!(lifetime.misprediction_fallbacks, 0);
    }

    #[test]
    fn stats_arithmetic_saturates_and_rates_are_bounded() {
        let a = EngineStats {
            plan_hits: 3,
            plan_misses: 1,
            feature_collections: 1,
            profile_passes: 1,
            misprediction_fallbacks: 0,
            plan_preparations: 1,
            cache_evictions: 0,
            plan_value_refreshes: 0,
            class_hits: 1,
            inherited_selections: 1,
            class_evictions: 0,
            timing_observations: 1,
            corrections_applied: 0,
            explored_selections: 0,
            correction_drift_millilog: 40,
            resident_plan_bytes: 100,
        };
        let b = EngineStats {
            plan_hits: 5,
            plan_misses: u64::MAX,
            feature_collections: 2,
            profile_passes: 2,
            misprediction_fallbacks: 0,
            plan_preparations: 2,
            cache_evictions: 1,
            plan_value_refreshes: 1,
            class_hits: 2,
            inherited_selections: 2,
            class_evictions: 1,
            timing_observations: 2,
            corrections_applied: 1,
            explored_selections: 1,
            correction_drift_millilog: 90,
            resident_plan_bytes: 200,
        };
        assert_eq!(a.saturating_sub(b), EngineStats::default());
        assert_eq!(b.saturating_add(b).plan_misses, u64::MAX);
        // The drift gauge aggregates by max (fleet-wide worst), not by sum.
        assert_eq!(a.saturating_add(b).correction_drift_millilog, 90);
        assert_eq!(a.selections(), 4);
        assert!((a.plan_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(EngineStats::default().plan_hit_rate(), 0.0);
        // Saturating selections: hits + misses cannot wrap either.
        assert_eq!(b.selections(), u64::MAX);
    }

    #[test]
    fn known_only_never_pays_collection() {
        let (engine, entries) = engine_and_collection();
        let s = engine.select_known_only(&entries[0].matrix, 1);
        assert!(!s.used_gathered);
        assert_eq!(s.feature_collection_cost, SimTime::ZERO);
    }

    #[test]
    fn gathered_only_always_pays_collection() {
        let (engine, entries) = engine_and_collection();
        let s = engine.select_gathered_only(&entries[0].matrix, 1);
        assert!(s.used_gathered);
        assert!(s.feature_collection_cost.as_nanos() > 0.0);
    }

    #[test]
    fn execute_produces_correct_spmv_result() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[3].matrix;
        let x: Vec<f64> = (0..matrix.cols()).map(|i| (i % 5) as f64 - 2.0).collect();
        let outcome = engine.execute(matrix, &x, 2);
        let reference = matrix.spmv(&x);
        assert_eq!(outcome.result.len(), reference.len());
        for (a, b) in outcome.result.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
        assert!(outcome.total_time >= outcome.selection.overhead());
    }

    #[test]
    fn feature_cache_replay_is_not_billed_again() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[0].matrix;

        // First gathered selection: the collection kernels really run, so the
        // call is charged the full overhead.
        let (first, charge_first) =
            engine.select_with_policy_charged(matrix, 1, SelectionPolicy::GatheredOnly);
        assert_eq!(charge_first, first.overhead());
        assert_eq!(engine.stats().feature_collections, 1);

        // A different plan key on the same matrix replays the collection from
        // the feature cache: the plan still reports the intrinsic collection
        // cost, but this call is only charged its tree walks.
        let (second, charge_second) =
            engine.select_with_policy_charged(matrix, 19, SelectionPolicy::GatheredOnly);
        assert_eq!(engine.stats().feature_collections, 1);
        assert!(second.feature_collection_cost.as_nanos() > 0.0);
        assert_eq!(charge_second, second.inference_overhead);

        // And a plan replay is charged nothing at all.
        let (_, charge_third) =
            engine.select_with_policy_charged(matrix, 19, SelectionPolicy::GatheredOnly);
        assert_eq!(charge_third, SimTime::ZERO);
    }

    #[test]
    fn repeated_execute_amortizes_selection_overhead() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[2].matrix;
        let x: Vec<f64> = vec![1.0; matrix.cols()];
        let first = engine.execute(matrix, &x, 5);
        let second = engine.execute(matrix, &x, 5);
        // Identical plan, identical kernel time — but the replay charges no
        // selection overhead.
        assert_eq!(first.selection, second.selection);
        assert!(first.selection.overhead().as_nanos() > 0.0);
        assert_eq!(
            first.total_time,
            first.selection.overhead() + second.total_time
        );
    }

    #[test]
    fn record_based_selection_matches_live_selection() {
        let (engine, entries) = engine_and_collection();
        for entry in entries.iter().take(5) {
            let record = BenchmarkRecord::measure(engine.gpu(), &entry.name, &entry.matrix, 1);
            let live = engine.select(&entry.matrix, 1);
            let recorded = engine.select_from_record(&record);
            assert_eq!(live.kernel, recorded.kernel);
            assert_eq!(live.used_gathered, recorded.used_gathered);
        }
    }

    #[test]
    fn modelled_total_is_at_least_the_chosen_kernel_total() {
        let (engine, entries) = engine_and_collection();
        let record =
            BenchmarkRecord::measure(engine.gpu(), &entries[1].name, &entries[1].matrix, 19);
        let selection = engine.select_from_record(&record);
        let total = engine.modelled_total_from_record(&record);
        assert!(total >= record.total_of(selection.kernel));
    }

    #[test]
    fn batch_entry_points_match_single_calls_and_share_plans() {
        let (engine, entries) = engine_and_collection();
        let a = &entries[0].matrix;
        let b = &entries[1].matrix;
        let selections = engine.select_batch(&[(a, 1), (b, 1), (a, 1), (a, 19)]);
        assert_eq!(selections.len(), 4);
        assert_eq!(selections[0], selections[2]);
        let stats = engine.stats();
        // (a,1), (b,1), (a,19) computed; second (a,1) replayed.
        assert_eq!(stats.plan_misses, 3);
        assert_eq!(stats.plan_hits, 1);

        let x_a: Vec<f64> = vec![1.0; a.cols()];
        let x_b: Vec<f64> = vec![1.0; b.cols()];
        let outcomes = [engine.execute(a, &x_a, 1), engine.execute(b, &x_b, 1)];
        assert_eq!(outcomes.len(), 2);
        for (outcome, reference) in outcomes.iter().zip([a.spmv(&x_a), b.spmv(&x_b)]) {
            assert_eq!(outcome.result.len(), reference.len());
            for (got, want) in outcome.result.iter().zip(&reference) {
                assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
            }
        }
        // Both executes replayed plans cached by the select_batch above.
        assert_eq!(engine.stats().plan_misses, 3);
    }

    #[test]
    fn concurrent_selects_share_one_cache() {
        let (engine, entries) = engine_and_collection();
        let engine = Arc::new(engine);
        let matrix = entries[0].matrix.clone();
        let per_thread = 8;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let matrix = matrix.clone();
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|_| engine.select(&matrix, 19))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Selection>> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        for selections in &results {
            for s in selections {
                assert_eq!(*s, results[0][0]);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.plan_hits + stats.plan_misses, 2 * per_thread);
        // Both threads may race on first contact with the key, but only the
        // first to install the plan counts the miss; the other adopts it.
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(engine.cached_plans(), 1);
    }

    #[test]
    fn concurrent_install_adopt_evict_and_sweep_share_one_cache() {
        let (engine, entries) = engine_and_collection();
        let matrices: Vec<CsrMatrix> = entries.iter().take(6).map(|e| e.matrix.clone()).collect();
        let inputs: Vec<Vec<f64>> = matrices
            .iter()
            .map(|m| (0..m.cols()).map(|i| (i % 7) as f64 - 3.0).collect())
            .collect();

        // Single-threaded replay on a twin engine: the reference selections
        // and result bits, plus the largest plan either kind of call caches.
        let reference = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
        let mut workspace = EngineWorkspace::new();
        let mut expected = HashMap::new();
        let mut merge_path_bytes = Vec::new();
        let mut largest_plan = 0;
        for (index, (matrix, x)) in matrices.iter().zip(&inputs).enumerate() {
            for iterations in [1, 19] {
                let (selection, _) = reference.execute_into(matrix, x, iterations, &mut workspace);
                let bits: Vec<u64> = workspace.result().iter().map(|v| v.to_bits()).collect();
                expected.insert((index, iterations), (selection, bits));
                let plan = reference.prepared_plan(matrix, selection.kernel);
                largest_plan = largest_plan.max(plan.heap_bytes());
            }
            let merge_path = reference.prepared_plan(matrix, KernelId::CsrMergePath);
            merge_path_bytes.push(merge_path.heap_bytes());
        }
        largest_plan = largest_plan.max(*merge_path_bytes.iter().max().unwrap());

        // About two merge-path plans of byte budget and three fingerprints:
        // plans are evicted and every entry swept while threads execute.
        // Recalibration stays off, so every selection is deterministic.
        merge_path_bytes.sort_unstable();
        let budget = 2 * merge_path_bytes[merge_path_bytes.len() / 2];
        engine.set_prepared_budget_bytes(budget);
        engine.set_fingerprint_budget(3);
        let engine = Arc::new(engine);
        let matrices = Arc::new(matrices);
        let inputs = Arc::new(inputs);
        let rounds = 3;
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|thread| {
                let (engine, matrices, inputs, start) = (
                    Arc::clone(&engine),
                    Arc::clone(&matrices),
                    Arc::clone(&inputs),
                    Arc::clone(&start),
                );
                std::thread::spawn(move || {
                    start.wait();
                    let mut workspace = EngineWorkspace::new();
                    let mut seen = Vec::new();
                    for round in 0..rounds {
                        for step in 0..matrices.len() {
                            // Each thread walks all six matrices in its own
                            // order: strides coprime to six, own offsets.
                            let stride = [1, 5, 7, 11][thread];
                            let index = (step * stride + round + thread) % matrices.len();
                            let matrix = &matrices[index];
                            for iterations in [1, 19] {
                                let (selection, _) = engine.execute_into(
                                    matrix,
                                    &inputs[index],
                                    iterations,
                                    &mut workspace,
                                );
                                let bits: Vec<u64> =
                                    workspace.result().iter().map(|v| v.to_bits()).collect();
                                seen.push(((index, iterations), (selection, bits)));
                            }
                            let plan = engine.prepared_plan(matrix, KernelId::CsrMergePath);
                            assert_eq!(plan.sparsity_fingerprint(), matrix.sparsity_fingerprint());
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut selections = 0;
        for handle in handles {
            for (key, outcome) in handle.join().expect("worker thread") {
                assert_eq!(
                    outcome, expected[&key],
                    "matrix {} at {} iterations",
                    key.0, key.1
                );
                selections += 1;
            }
        }
        let stats = engine.stats();
        assert_eq!(selections, 4 * rounds * 6 * 2);
        assert_eq!(stats.plan_hits + stats.plan_misses, selections as u64);
        assert!(stats.cache_evictions > 0, "no eviction or sweep happened");
        assert!(stats.resident_plan_bytes <= budget.max(largest_plan) as u64);
    }

    #[test]
    fn execute_prepares_once_and_replays_bit_identically() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[1].matrix;
        let x: Vec<f64> = (0..matrix.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut workspace = EngineWorkspace::new();

        // Cold execute: one plan miss, one preparation.
        let (selection, _) = engine.execute_into(matrix, &x, 19, &mut workspace);
        let cold = workspace.result().to_vec();
        assert_eq!(engine.stats().plan_preparations, 1);
        assert_eq!(engine.cached_prepared_plans(), 1);

        // Warm executes: zero further preparations, identical bits.
        for _ in 0..5 {
            let (warm_selection, _) = engine.execute_into(matrix, &x, 19, &mut workspace);
            assert_eq!(warm_selection, selection);
            for (a, b) in workspace.result().iter().zip(&cold) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(engine.stats().plan_preparations, 1);

        // The streaming baseline agrees bit for bit and builds no plans.
        let mut streaming_ws = EngineWorkspace::new();
        let (streaming_selection, _) =
            engine.execute_streaming_into(matrix, &x, 19, &mut streaming_ws);
        assert_eq!(streaming_selection, selection);
        for (a, b) in streaming_ws.result().iter().zip(&cold) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(engine.stats().plan_preparations, 1);
    }

    #[test]
    fn prepared_cache_evicts_by_byte_budget_lru() {
        let (engine, entries) = engine_and_collection();
        // Materialized plans (merge-path tables) on three distinct matrices.
        let kernels = KernelId::CsrMergePath;
        let sizes: Vec<usize> = entries
            .iter()
            .take(3)
            .map(|e| engine.prepared_plan(&e.matrix, kernels).heap_bytes())
            .collect();
        assert!(sizes.iter().all(|&b| b > 0));
        let stats = engine.stats();
        assert_eq!(stats.plan_preparations, 3);
        assert_eq!(stats.cache_evictions, 0);
        assert_eq!(
            stats.resident_plan_bytes,
            sizes.iter().sum::<usize>() as u64
        );

        // Tighten the budget to hold only the largest plan: the least
        // recently used plans are dropped immediately.
        let largest = *sizes.iter().max().unwrap();
        engine.set_prepared_budget_bytes(largest);
        let stats = engine.stats();
        assert!(stats.cache_evictions >= 1);
        assert!(stats.resident_plan_bytes <= largest as u64);
        assert!(engine.cached_prepared_plans() < 3);

        // Touch matrix 2 (most recent), then insert matrix 0 again: the
        // budget evicts the stale entry, never the fresh insertion.
        let replayed = engine.prepared_plan(&entries[2].matrix, kernels);
        let rebuilt = engine.prepared_plan(&entries[0].matrix, kernels);
        assert_eq!(replayed.kernel(), kernels);
        assert_eq!(
            rebuilt.sparsity_fingerprint(),
            entries[0].matrix.sparsity_fingerprint()
        );
        assert!(engine.stats().resident_plan_bytes <= largest.max(sizes[0]) as u64);
    }

    /// The eviction index must name exactly the slots that hold a prepared
    /// plan: every planned fingerprint once, and none without a plan.
    fn assert_plan_index_exact(engine: &SeerEngine) {
        let cache = engine.read_cache();
        let indexed: std::collections::HashSet<_> = cache
            .planned_slots()
            .map(|(at, _, slot)| (cache.planned[at], slot.device, slot.kernel))
            .collect();
        let scanned: std::collections::HashSet<_> = cache
            .entries
            .iter()
            .flat_map(|(&fingerprint, entry)| {
                let planned = entry.kernels.iter().filter(|slot| slot.plan.is_some());
                planned.map(move |slot| (fingerprint, slot.device, slot.kernel))
            })
            .collect();
        assert_eq!(indexed, scanned);
        let distinct: std::collections::HashSet<_> = cache.planned.iter().collect();
        assert_eq!(distinct.len(), cache.planned.len(), "indexed twice");
        assert!(cache.planned.iter().all(|fp| cache
            .entries
            .get(fp)
            .is_some_and(FingerprintEntry::holds_plan)));
    }

    #[test]
    fn plan_index_names_exactly_the_slots_holding_a_plan() {
        let (engine, entries) = engine_and_collection();
        let fleet = Fleet::reference_heterogeneous();
        let engine = SeerEngine::with_fleet(fleet.clone(), engine.models_handle());
        let devices: Vec<DeviceId> = fleet.ids().collect();
        // Installs: plans on two devices for some fingerprints, selections
        // alone for others.
        for entry in &entries[..4] {
            engine.prepared_plan_on(&entry.matrix, devices[0], KernelId::CsrMergePath);
            engine.prepared_plan_on(&entry.matrix, devices[1], KernelId::CsrAdaptive);
        }
        for entry in &entries[4..8] {
            engine.select_known_only(&entry.matrix, 19);
        }
        assert_eq!(engine.cached_prepared_plans(), 8);
        assert_plan_index_exact(&engine);

        // Evictions: a 1-byte budget keeps only the newest plan, and each
        // further install evicts one.
        engine.set_prepared_budget_bytes(1);
        assert_plan_index_exact(&engine);
        for entry in &entries[8..11] {
            engine.prepared_plan_on(&entry.matrix, devices[2], KernelId::CsrMergePath);
            assert_plan_index_exact(&engine);
        }
        assert_eq!(engine.cached_prepared_plans(), 1);
        engine.set_prepared_budget_bytes(FingerprintCache::DEFAULT_PLAN_BUDGET);

        // An ELL value refresh swaps a plan in place.
        let mut identity = CsrMatrix::identity(256);
        engine.prepared_plan_on(&identity, devices[1], KernelId::EllThreadMapped);
        identity.update_values(&[2.0; 256]).unwrap();
        engine.prepared_plan_on(&identity, devices[1], KernelId::EllThreadMapped);
        assert_eq!(engine.stats().plan_value_refreshes, 1);
        assert_plan_index_exact(&engine);

        // Dropping one device's slots keeps the other devices' plans.
        engine.prepared_plan_on(&entries[0].matrix, devices[0], KernelId::CsrMergePath);
        engine.invalidate_device(devices[1]);
        assert_plan_index_exact(&engine);
        assert!(engine.cached_prepared_plans() >= 1);

        // A fingerprint-budget sweep drops every entry.
        engine.set_fingerprint_budget(1);
        engine.select_known_only(&entries[12].matrix, 19);
        assert_plan_index_exact(&engine);
        assert_eq!(engine.cached_prepared_plans(), 0);
        engine.set_fingerprint_budget(SeerEngine::DEFAULT_FINGERPRINT_BUDGET);
        engine.prepared_plan_on(&entries[0].matrix, devices[3], KernelId::CsrMergePath);
        assert_plan_index_exact(&engine);

        engine.clear_caches();
        assert_plan_index_exact(&engine);
        assert!(engine.read_cache().planned.is_empty());
    }

    #[test]
    fn fingerprint_budget_sweeps_per_fingerprint_caches() {
        let (engine, entries) = engine_and_collection();
        engine.set_fingerprint_budget(2);
        for entry in entries.iter().take(4) {
            engine.select(&entry.matrix, 19);
        }
        let stats = engine.stats();
        // The sweep dropped entries (counted), but did not reset counters:
        // all four selections are still visible as misses.
        assert_eq!(stats.plan_misses, 4);
        assert!(stats.cache_evictions > 0);
        // The resident per-fingerprint footprint stayed bounded.
        assert!(engine.cached_plans() <= 3);
    }

    #[test]
    fn fingerprint_budget_counts_distinct_matrices_not_plan_keys() {
        let (engine, entries) = engine_and_collection();
        engine.set_fingerprint_budget(4);
        // Three distinct matrices, two selections each: six selections over
        // three fingerprints stay within a budget of four fingerprints.
        for entry in entries.iter().take(3) {
            engine.select_known_only(&entry.matrix, 1);
            engine.select_known_only(&entry.matrix, 19);
        }
        assert_eq!(engine.stats().cache_evictions, 0);
        assert_eq!(engine.cached_plans(), 6);
    }

    #[test]
    fn single_oversized_plan_still_serves() {
        let (engine, entries) = engine_and_collection();
        engine.set_prepared_budget_bytes(1);
        let plan = engine.prepared_plan(&entries[0].matrix, KernelId::CsrMergePath);
        assert!(plan.heap_bytes() > 1);
        // Over budget but irreplaceable: the newest plan is kept.
        assert_eq!(engine.cached_prepared_plans(), 1);
        // The next materialized plan displaces it.
        let _ = engine.prepared_plan(&entries[1].matrix, KernelId::CsrMergePath);
        assert_eq!(engine.cached_prepared_plans(), 1);
        assert!(engine.stats().cache_evictions >= 1);
    }

    #[test]
    fn single_device_fleet_is_bit_identical_to_legacy_engine() {
        let (engine, entries) = engine_and_collection();
        let fleet_engine =
            SeerEngine::with_fleet(Fleet::single(engine.gpu_handle()), engine.models_handle());
        assert!(fleet_engine.fleet().is_single_device());
        for entry in entries.iter().take(6) {
            for iterations in [1, 19] {
                let legacy = engine.select(&entry.matrix, iterations);
                let fleet = fleet_engine.select(&entry.matrix, iterations);
                assert_eq!(legacy, fleet);
                assert_eq!(fleet.device, DeviceId::DEFAULT);
            }
        }
        // Identical counter trajectories, including zero profiling passes on
        // known-only paths (single-device placement never runs cost models).
        assert_eq!(engine.stats(), fleet_engine.stats());
    }

    #[test]
    fn fleet_placement_is_the_modelled_argmin_device() {
        let (engine, entries) = engine_and_collection();
        let fleet = Fleet::reference_heterogeneous();
        let fleet_engine = SeerEngine::with_fleet(fleet.clone(), engine.models_handle());
        let collector = FeatureCollector::new();
        for entry in entries.iter().take(10) {
            for iterations in [1, 19] {
                let selection = fleet_engine.select(&entry.matrix, iterations);
                let profile = entry.matrix.profile();
                let k = kernel(selection.kernel);
                let totals: Vec<SimTime> = fleet
                    .ids()
                    .map(|id| {
                        let gpu = fleet.gpu(id);
                        let collection = if selection.used_gathered {
                            collector.collection_cost_with(&gpu, &entry.matrix, profile)
                        } else {
                            SimTime::ZERO
                        };
                        // Same grouping as the engine's ranking: overheads
                        // first, then the kernel total (prep + iters x iter).
                        let kernel_total = k.preprocessing_time(&gpu, &entry.matrix, profile)
                            + k.iteration_timing(&gpu, &entry.matrix, profile).total
                                * iterations as f64;
                        collection + selection.inference_overhead + kernel_total
                    })
                    .collect();
                let winner = selection.device.index();
                for (index, &total) in totals.iter().enumerate() {
                    if index < winner {
                        // Strictly better than every earlier device (ties
                        // break toward the lowest id).
                        assert!(totals[winner] < total, "{}: tie-break drifted", entry.name);
                    } else {
                        assert!(totals[winner] <= total, "{}: not the argmin", entry.name);
                    }
                }
            }
        }
    }

    #[test]
    fn device_stats_sum_to_the_aggregate_counters() {
        let (engine, entries) = engine_and_collection();
        let fleet_engine =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        let mut workspace = EngineWorkspace::new();
        for entry in entries.iter().take(6) {
            let x = vec![1.0; entry.matrix.cols()];
            for _ in 0..3 {
                let _ = fleet_engine.execute_into(&entry.matrix, &x, 19, &mut workspace);
            }
        }
        let aggregate = fleet_engine.stats();
        let per_device = fleet_engine.device_stats();
        assert_eq!(per_device.len(), fleet_engine.fleet().len());
        let summed = per_device
            .iter()
            .fold(EngineStats::default(), |acc, s| acc.saturating_add(*s));
        assert_eq!(summed.plan_hits, aggregate.plan_hits);
        assert_eq!(summed.plan_misses, aggregate.plan_misses);
        assert_eq!(summed.plan_preparations, aggregate.plan_preparations);
        assert_eq!(summed.cache_evictions, aggregate.cache_evictions);
        assert_eq!(summed.resident_plan_bytes, aggregate.resident_plan_bytes);
        // Shared (fleet-wide) work lives only in the aggregate.
        assert_eq!(summed.feature_collections, 0);
        assert_eq!(summed.profile_passes, 0);
        // Each selection landed its hit/miss on its placed device.
        for (stats, id) in per_device.iter().zip(fleet_engine.fleet().ids()) {
            assert_eq!(*stats, fleet_engine.stats_for(id));
        }
        assert_eq!(aggregate.selections(), 6 * 3);
    }

    #[test]
    fn budgeted_sweep_attributes_prepared_drops_per_device() {
        let (engine, entries) = engine_and_collection();
        let fleet_engine =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        let mut workspace = EngineWorkspace::new();
        for entry in entries.iter().take(2) {
            let x = vec![1.0; entry.matrix.cols()];
            let _ = fleet_engine.execute_into(&entry.matrix, &x, 19, &mut workspace);
        }
        let prepared = fleet_engine.cached_prepared_plans() as u64;
        assert!(prepared > 0);

        // Shrink the fingerprint budget and trip the sweep with a fresh
        // distinct matrix: every cache is dropped in one clear.
        fleet_engine.set_fingerprint_budget(1);
        fleet_engine.select(&entries[2].matrix, 19);
        assert_eq!(fleet_engine.cached_prepared_plans(), 0);
        let aggregate = fleet_engine.stats();
        let per_device: u64 = fleet_engine
            .device_stats()
            .iter()
            .map(|s| s.cache_evictions)
            .sum();
        // Prepared-plan drops are attributed to their keyed devices; the
        // device-agnostic fingerprint-map drops only swell the aggregate.
        assert_eq!(per_device, prepared);
        assert!(aggregate.cache_evictions > per_device);
    }

    #[test]
    fn fleet_cold_selection_profiles_each_matrix_once() {
        let (engine, entries) = engine_and_collection();
        let fleet_engine =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        // Regenerated bit-identical matrices with cold profile memos
        // (cloning would copy the warm memo the training pass installed).
        let fresh_entries = generate(&CollectionConfig::tiny());
        for entry in fresh_entries.iter().take(5) {
            fleet_engine.select(&entry.matrix, 19);
        }
        // Ranking four devices still profiles each matrix exactly once: the
        // profile is shared, only the cost models run per device.
        assert_eq!(fleet_engine.stats().profile_passes, 5);
        let replayed = fleet_engine.stats();
        for entry in entries.iter().take(5) {
            fleet_engine.select(&entry.matrix, 19);
        }
        assert_eq!(fleet_engine.stats().profile_passes, replayed.profile_passes);
    }

    #[test]
    fn no_fallbacks_for_correctly_trained_models() {
        let (engine, entries) = engine_and_collection();
        for entry in entries.iter().take(4) {
            engine.select(&entry.matrix, 1);
            engine.select_gathered_only(&entry.matrix, 1);
        }
        assert_eq!(engine.stats().misprediction_fallbacks, 0);
    }

    /// Two fresh same-family matrices (same generator, nearby seeds) that
    /// land in the same structure class.
    fn near_duplicate_pair() -> (CsrMatrix, CsrMatrix) {
        let mut a_rng = seer_sparse::SplitMix64::new(100);
        let mut b_rng = seer_sparse::SplitMix64::new(101);
        let a = seer_sparse::generators::uniform_row_length(4000, 9, &mut a_rng);
        let b = seer_sparse::generators::uniform_row_length(4000, 9, &mut b_rng);
        assert_eq!(a.structure_signature(), b.structure_signature());
        assert_ne!(a.sparsity_fingerprint(), b.sparsity_fingerprint());
        (a, b)
    }

    #[test]
    fn class_reuse_is_off_by_default_and_off_means_no_inheritance() {
        let (engine, _) = engine_and_collection();
        assert!(!engine.structure_class_reuse());
        let (a, b) = near_duplicate_pair();
        engine.select(&a, 19);
        engine.select(&b, 19);
        let stats = engine.stats();
        // Both paid the full cold path; the class index recorded them but
        // never served an inherited selection.
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.class_hits, 0);
        assert_eq!(stats.inherited_selections, 0);
    }

    #[test]
    fn enabled_class_reuse_inherits_the_selection_without_profiling() {
        let (engine, _) = engine_and_collection();
        engine.set_structure_class_reuse(true);
        let (a, b) = near_duplicate_pair();
        let from_scratch = engine.select(&a, 19);
        let cold = engine.stats();
        assert_eq!(cold.class_hits, 0);

        let inherited = engine.select(&b, 19);
        let warm = engine.stats();
        assert_eq!(inherited.kernel, from_scratch.kernel);
        assert_eq!(inherited.device, from_scratch.device);
        // The inherited selection skipped collection, inference and
        // profiling, and honestly reports zero overheads.
        assert_eq!(inherited.feature_collection_cost, SimTime::ZERO);
        assert_eq!(inherited.inference_overhead, SimTime::ZERO);
        assert_eq!(warm.class_hits, 1);
        assert_eq!(warm.inherited_selections, 1);
        assert_eq!(warm.profile_passes, cold.profile_passes);
        assert_eq!(warm.feature_collections, cold.feature_collections);

        // The inherited selection was installed in the exact plan cache:
        // replaying the same matrix is a plain hit, not a second class hit.
        engine.select(&b, 19);
        let replay = engine.stats();
        assert_eq!(replay.plan_hits, 1);
        assert_eq!(replay.class_hits, 1);
    }

    #[test]
    fn exact_plan_cache_wins_over_class_inheritance() {
        let (engine, entries) = engine_and_collection();
        engine.set_structure_class_reuse(true);
        let matrix = &entries[0].matrix;
        let first = engine.select(matrix, 19);
        let second = engine.select(matrix, 19);
        // An exact repeat replays the cached selection with its recorded
        // overheads — inheritance never rewrites exact-match behaviour.
        assert_eq!(first, second);
        assert_eq!(engine.stats().class_hits, 0);
    }

    #[test]
    fn class_index_is_bounded_and_eviction_is_counted() {
        let (engine, entries) = engine_and_collection();
        engine.set_structure_class_capacity(2);
        for entry in entries.iter().take(5) {
            engine.select(&entry.matrix, 19);
        }
        assert!(engine.cached_structure_classes() <= 2);
        let stats = engine.stats();
        let distinct_classes: std::collections::HashSet<_> = entries
            .iter()
            .take(5)
            .map(|e| e.matrix.structure_signature())
            .collect();
        if distinct_classes.len() > 2 {
            assert!(stats.class_evictions > 0);
        }
        // Shrinking the capacity evicts immediately.
        engine.set_structure_class_capacity(1);
        assert!(engine.cached_structure_classes() <= 1);
    }

    #[test]
    fn clear_caches_drops_the_class_index() {
        let (engine, entries) = engine_and_collection();
        engine.select(&entries[0].matrix, 19);
        assert!(engine.cached_structure_classes() > 0);
        engine.clear_caches();
        assert_eq!(engine.cached_structure_classes(), 0);
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn slab_refresh_after_value_mutation_is_not_a_preparation() {
        let (engine, _) = engine_and_collection();
        // Identity has zero ELL padding, so the thread-mapped ELL kernel
        // materializes a slab (the one values-embedding plan variant).
        let mut matrix = CsrMatrix::identity(256);
        let plan = engine.prepared_plan(&matrix, KernelId::EllThreadMapped);
        assert!(plan.values_fingerprint().is_some());
        let cold = engine.stats();
        assert_eq!(cold.plan_preparations, 1);
        assert_eq!(cold.plan_value_refreshes, 0);

        // Mutate the values: the cached slab is stale, and the engine
        // refreshes it in place — no new profile pass, no preparation.
        matrix.update_values(&vec![2.0; 256]).unwrap();
        let refreshed = engine.prepared_plan(&matrix, KernelId::EllThreadMapped);
        assert!(refreshed.values_current(&matrix));
        let warm = engine.stats();
        assert_eq!(warm.plan_preparations, cold.plan_preparations);
        assert_eq!(warm.plan_value_refreshes, 1);
        assert_eq!(warm.profile_passes, cold.profile_passes);
        // Byte accounting survived the swap.
        assert_eq!(
            warm.resident_plan_bytes,
            refreshed.heap_bytes() as u64 + cold.resident_plan_bytes - plan.heap_bytes() as u64
        );

        // Replaying the refreshed plan with unchanged values is a plain hit.
        let replayed = engine.prepared_plan(&matrix, KernelId::EllThreadMapped);
        assert_eq!(engine.stats().plan_value_refreshes, 1);
        assert!(replayed.values_current(&matrix));
    }

    #[test]
    fn structure_only_prepared_plans_survive_value_mutation() {
        let (engine, entries) = engine_and_collection();
        let mut matrix = entries[0].matrix.clone();
        let plan = engine.prepared_plan(&matrix, KernelId::CsrMergePath);
        assert_eq!(plan.values_fingerprint(), None);
        let cold = engine.stats();
        let doubled: Vec<f64> = matrix.values().iter().map(|v| v * 2.0).collect();
        matrix.update_values(&doubled).unwrap();
        let replayed = engine.prepared_plan(&matrix, KernelId::CsrMergePath);
        assert!(replayed.values_current(&matrix));
        let warm = engine.stats();
        assert_eq!(warm.plan_preparations, cold.plan_preparations);
        assert_eq!(warm.plan_value_refreshes, 0);
    }

    #[test]
    fn recalibration_is_off_by_default_and_config_round_trips() {
        let (engine, _) = engine_and_collection();
        assert_eq!(engine.recalibration_config(), None);
        assert_eq!(
            engine.correction_factor(DeviceId::DEFAULT, KernelId::CsrAdaptive),
            1.0
        );
        let config = RecalibrationConfig::default();
        engine.set_recalibration(Some(config));
        assert_eq!(engine.recalibration_config(), Some(config));
        engine.set_recalibration(None);
        assert_eq!(engine.recalibration_config(), None);
    }

    #[test]
    fn ewma_observation_moves_the_factor_and_clamps() {
        let recal = Recalibration::new(
            RecalibrationConfig {
                smoothing: 0.25,
                clamp_min: 0.25,
                clamp_max: 4.0,
                exploration: None,
            },
            2,
        );
        let device = DeviceId::new(1);
        let kernel = KernelId::CsrMergePath;
        assert_eq!(recal.factor(device, kernel), 1.0);
        recal.observe(device, kernel, 2.0);
        // 1.0 * 0.75 + 2.0 * 0.25
        assert!((recal.factor(device, kernel) - 1.25).abs() < 1e-12);
        // Other slots are untouched.
        assert_eq!(recal.factor(DeviceId::DEFAULT, kernel), 1.0);
        assert_eq!(recal.factor(device, KernelId::CsrAdaptive), 1.0);
        // A sustained ratio converges to it: f_n = r + (1 - r) * 0.75^n.
        for _ in 0..40 {
            recal.observe(device, kernel, 2.0);
        }
        assert!((recal.factor(device, kernel) - 2.0).abs() < 1e-4);
        // Drift gauge: round(1000 * ln 2) = 693.
        assert_eq!(recal.max_drift_millilog(), 693);
        // Absurd observations are clamped, so recovery stays bounded.
        recal.observe(device, kernel, 1e12);
        assert_eq!(recal.factor(device, kernel), 4.0);
        recal.reset();
        assert_eq!(recal.factor(device, kernel), 1.0);
        assert_eq!(recal.max_drift_millilog(), 0);
    }

    #[test]
    fn exploration_knobs_gate_the_draw() {
        let never = Recalibration::new(
            RecalibrationConfig {
                exploration: Some(ExplorationPolicy {
                    epsilon: 0.0,
                    ..ExplorationPolicy::default()
                }),
                ..RecalibrationConfig::default()
            },
            1,
        );
        assert!(!never.explore());
        let always = Recalibration::new(
            RecalibrationConfig {
                exploration: Some(ExplorationPolicy {
                    epsilon: 1.0,
                    near_tie_fraction: f64::INFINITY,
                    seed: 7,
                }),
                ..RecalibrationConfig::default()
            },
            1,
        );
        assert!(always.explore());
        // An infinite near-tie window admits any runner-up; a finite one
        // admits only candidates within the fraction.
        assert!(always.near_tie(SimTime::from_nanos(1.0), SimTime::from_nanos(1e9)));
        let tight = Recalibration::new(
            RecalibrationConfig {
                exploration: Some(ExplorationPolicy {
                    near_tie_fraction: 0.05,
                    ..ExplorationPolicy::default()
                }),
                ..RecalibrationConfig::default()
            },
            1,
        );
        assert!(tight.near_tie(SimTime::from_nanos(100.0), SimTime::from_nanos(104.0)));
        assert!(!tight.near_tie(SimTime::from_nanos(100.0), SimTime::from_nanos(110.0)));
        // No exploration policy: nothing qualifies, nothing is drawn.
        let none = Recalibration::new(RecalibrationConfig::default(), 1);
        assert!(!none.explore());
        assert!(!none.near_tie(SimTime::from_nanos(100.0), SimTime::from_nanos(100.0)));
    }

    #[test]
    #[should_panic(expected = "smoothing must be in (0, 1]")]
    fn zero_smoothing_is_rejected() {
        let (engine, _) = engine_and_collection();
        engine.set_recalibration(Some(RecalibrationConfig {
            smoothing: 0.0,
            ..RecalibrationConfig::default()
        }));
    }

    #[test]
    fn executions_feed_observations_only_while_enabled() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[0].matrix;
        let x = vec![1.0; matrix.cols()];
        let mut workspace = EngineWorkspace::new();
        let _ = engine.execute_into(matrix, &x, 19, &mut workspace);
        assert_eq!(engine.stats().timing_observations, 0);
        engine.set_recalibration(Some(RecalibrationConfig::default()));
        let _ = engine.execute_into(matrix, &x, 19, &mut workspace);
        let _ = engine.execute_into(matrix, &x, 19, &mut workspace);
        assert_eq!(engine.stats().timing_observations, 2);
        // Spec-faithful device: every observation ratio is exactly 1.0, so
        // the factor never leaves unity and no correction is ever applied.
        let selection = engine.select(matrix, 19);
        assert_eq!(
            engine.correction_factor(selection.device, selection.kernel),
            1.0
        );
        assert_eq!(engine.stats().corrections_applied, 0);
        assert_eq!(engine.stats().correction_drift_millilog, 0);
    }

    #[test]
    fn perturbed_device_timings_drive_the_factor_to_the_truth() {
        let (engine, entries) = engine_and_collection();
        let matrix = &entries[0].matrix;
        let x = vec![1.0; matrix.cols()];
        let mut workspace = EngineWorkspace::new();
        engine.set_recalibration(Some(RecalibrationConfig::default()));
        let baseline = {
            let mut w = EngineWorkspace::new();
            engine.execute_into(matrix, &x, 19, &mut w).1
        };
        // Inject a 2x slowdown on the (single) device: observed totals
        // double, and the correction factor walks toward 2.0.
        engine
            .fleet()
            .set_true_timing_factor(DeviceId::DEFAULT, 2.0);
        let selection = engine.select(matrix, 19);
        for _ in 0..40 {
            let _ = engine.execute_into(matrix, &x, 19, &mut workspace);
        }
        let factor = engine.correction_factor(selection.device, selection.kernel);
        assert!(
            (factor - 2.0).abs() < 0.05,
            "factor {factor} has not converged toward the injected 2x"
        );
        assert!(engine.stats().correction_drift_millilog > 600);
        // Billed totals reflect the perturbation (selection overhead was
        // already charged on the cold call, so warm totals are pure kernel
        // time and scale by exactly 2x once the overhead is removed).
        let (_, warm_total) = engine.execute_into(matrix, &x, 19, &mut workspace);
        assert!(warm_total.as_nanos() > baseline.as_nanos());
        // Lifting the perturbation walks the factor back to 1.0.
        engine.fleet().clear_true_timing_factors();
        for _ in 0..60 {
            let _ = engine.execute_into(matrix, &x, 19, &mut workspace);
        }
        let recovered = engine.correction_factor(selection.device, selection.kernel);
        assert!(
            (recovered - 1.0).abs() < 0.05,
            "factor {recovered} has not recovered after the perturbation lifted"
        );
        // clear_caches starts a fresh generation: factors back to unity.
        engine
            .fleet()
            .set_true_timing_factor(DeviceId::DEFAULT, 2.0);
        let _ = engine.execute_into(matrix, &x, 19, &mut workspace);
        assert!(engine.correction_factor(selection.device, selection.kernel) > 1.0);
        engine.clear_caches();
        assert_eq!(
            engine.correction_factor(selection.device, selection.kernel),
            1.0
        );
        assert_eq!(engine.stats(), EngineStats::default());
    }

    #[test]
    fn recalibration_replays_are_bit_identical_when_factors_are_unity() {
        let (engine, entries) = engine_and_collection();
        let control =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        let recalibrated =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        recalibrated.set_recalibration(Some(RecalibrationConfig::default()));
        for entry in entries.iter().take(8) {
            for iterations in [1, 19] {
                // Cold selections and warm replays agree while every factor
                // sits at 1.0 (ratio-1 observations never move it).
                assert_eq!(
                    control.select(&entry.matrix, iterations),
                    recalibrated.select(&entry.matrix, iterations)
                );
                assert_eq!(
                    control.select(&entry.matrix, iterations),
                    recalibrated.select(&entry.matrix, iterations)
                );
            }
        }
        assert_eq!(recalibrated.stats().corrections_applied, 0);
        assert_eq!(recalibrated.stats().explored_selections, 0);
    }

    #[test]
    fn corrected_placement_migrates_off_a_discredited_device() {
        let (engine, entries) = engine_and_collection();
        let fleet_engine =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        fleet_engine.set_recalibration(Some(RecalibrationConfig::default()));
        let matrix = &entries[0].matrix;
        let cold = fleet_engine.select(matrix, 19);
        let home = cold.device;
        // Discredit the home device directly: with its factor at the clamp
        // ceiling its corrected total loses to some other device, and the
        // cached plan's warm replays migrate without a plan-cache miss.
        let recal = fleet_engine.recalibration_handle().unwrap();
        for _ in 0..64 {
            recal.observe(home, cold.kernel, 1e6);
        }
        let migrated = fleet_engine.select(matrix, 19);
        assert_ne!(
            migrated.device, home,
            "placement did not migrate off the discredited device"
        );
        assert_eq!(migrated.kernel, cold.kernel);
        let stats = fleet_engine.stats();
        assert_eq!(stats.plan_misses, 1, "migration must not invalidate plans");
        assert!(stats.corrections_applied > 0);
    }

    #[test]
    fn record_selection_is_fleet_aware_under_recalibration() {
        let (engine, entries) = engine_and_collection();
        let fleet_engine =
            SeerEngine::with_fleet(Fleet::reference_heterogeneous(), engine.models_handle());
        let record = BenchmarkRecord::measure(fleet_engine.gpu(), "rec", &entries[0].matrix, 19);
        // Recalibration off: records resolve to the default device.
        let legacy = fleet_engine.select_from_record(&record);
        assert_eq!(legacy.device, DeviceId::DEFAULT);
        // On, with unity factors: every device ties, lowest id wins — the
        // same answer, so enabling the layer alone changes nothing.
        fleet_engine.set_recalibration(Some(RecalibrationConfig::default()));
        assert_eq!(fleet_engine.select_from_record(&record), legacy);
        // Discredit the default device for the record's kernel: the record
        // ranking now places elsewhere.
        let recal = fleet_engine.recalibration_handle().unwrap();
        for _ in 0..64 {
            recal.observe(DeviceId::DEFAULT, legacy.kernel, 1e6);
        }
        let rerouted = fleet_engine.select_from_record(&record);
        assert_ne!(rerouted.device, DeviceId::DEFAULT);
        assert_eq!(rerouted.kernel, legacy.kernel);
    }
}

//! Deterministic request-stream generation for serving experiments.
//!
//! Throughput and cache-locality claims about a serving layer only mean
//! something when the request stream that produced them can be replayed
//! bit-for-bit. This module turns a [`SplitMix64`] seed into an infinite-ish
//! stream of [`TrafficRequest`]s over a corpus of `corpus_size` matrices
//! (by index — the caller owns the actual matrices, typically a
//! [`crate::collection::generate`] collection) with three independently
//! configurable axes of realism:
//!
//! * **reuse skew** — a Zipf-like hot set: most requests go to a small set of
//!   popular matrices, the rest spread uniformly over the cold corpus. This is
//!   the regime plan caches are built for, and the knob that controls how much
//!   a cache can possibly help.
//! * **burst structure** — real traffic repeats: an iterative solver submits
//!   the same operator many times in a row. Bursts replay the previous matrix
//!   for a sampled run length.
//! * **iteration mix** — per-request iteration counts drawn from a
//!   configurable distribution, matching the paper's observation that
//!   workloads span single-shot to hundreds of iterations.
//!
//! Two generators built from equal configs yield identical streams; the
//! stream is also independent of how the consumer interleaves calls, so a
//! sequential replay and a sharded concurrent replay see the same requests.
//!
//! # Example
//!
//! ```
//! use seer_sparse::traffic::{TrafficConfig, TrafficGenerator};
//!
//! let config = TrafficConfig::smoke(16);
//! let requests: Vec<_> = TrafficGenerator::new(&config).take(100).collect();
//! let replay: Vec<_> = TrafficGenerator::new(&config).take(100).collect();
//! assert_eq!(requests, replay);
//! assert!(requests.iter().all(|r| r.matrix_index < 16));
//! ```

use crate::SplitMix64;

/// Per-request iteration-count distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum IterationMix {
    /// Every request runs the same number of iterations.
    Fixed(usize),
    /// Iteration counts drawn uniformly from `[lo, hi]`.
    Uniform {
        /// Smallest iteration count (inclusive).
        lo: usize,
        /// Largest iteration count (inclusive).
        hi: usize,
    },
    /// A two-mode mix: mostly `short` runs with an occasional `long` solver
    /// run — the shape the amortization study (Fig. 7) cares about.
    Bimodal {
        /// Iteration count of the common short requests.
        short: usize,
        /// Iteration count of the rare long requests.
        long: usize,
        /// Fraction of requests that are long, in `[0, 1]`.
        long_fraction: f64,
    },
}

impl IterationMix {
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        match *self {
            IterationMix::Fixed(n) => n.max(1),
            IterationMix::Uniform { lo, hi } => {
                let lo = lo.max(1);
                let hi = hi.max(lo);
                rng.next_range(lo, hi + 1)
            }
            IterationMix::Bimodal {
                short,
                long,
                long_fraction,
            } => {
                if rng.next_f64() < long_fraction.clamp(0.0, 1.0) {
                    long.max(1)
                } else {
                    short.max(1)
                }
            }
        }
    }
}

/// Configuration of a deterministic traffic stream.
///
/// Equal configs generate identical streams.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Seed of the stream; every draw derives from it.
    pub seed: u64,
    /// Number of distinct matrices the stream addresses (requests carry
    /// indices in `[0, corpus_size)`).
    pub corpus_size: usize,
    /// Number of matrices in the popular hot set (clamped to `corpus_size`).
    pub hot_set_size: usize,
    /// Probability that a fresh (non-burst) request targets the hot set.
    pub hot_fraction: f64,
    /// Zipf-like exponent of rank popularity inside the hot set; larger means
    /// more mass on the few hottest matrices. Must be `> 1`.
    pub zipf_exponent: f64,
    /// Probability that a request opens a burst replaying its matrix.
    pub burst_fraction: f64,
    /// Maximum burst run length (a burst replays the same matrix for a
    /// uniformly sampled `2..=max_burst_len` consecutive requests).
    pub max_burst_len: usize,
    /// Distribution of per-request iteration counts.
    pub iterations: IterationMix,
    /// Probability that a request carries a *value update*: the caller is
    /// expected to mutate the target matrix's values (same sparsity pattern)
    /// through [`crate::CsrMatrix::update_values`] before serving it — the
    /// time-stepping-solver shape where the operator's coefficients change
    /// every step but its structure never does. Zero (the default for every
    /// pre-existing scenario) disables the draw entirely, so older streams
    /// replay bit-identically.
    pub value_update_fraction: f64,
    /// Probability that a request is annotated [`ChaosEvent::KillDevice`]:
    /// the harness should hard-fail one serving device before submitting
    /// it. The traffic stream owns the *timing* of chaos; which device dies
    /// (and whether a later kill is a no-op because everything is already
    /// dead) is the harness's policy. Zero (the default everywhere outside
    /// the chaos scenarios) disables the draw entirely, so pre-chaos
    /// streams replay bit-identically.
    pub chaos_kill_fraction: f64,
    /// Probability that a request is [`RequestClass::Batch`] — throughput
    /// traffic an admission-controlled pool may delay behind interactive
    /// work. Zero (the default for every pre-overload scenario) disables the
    /// class draw entirely, so older streams replay bit-identically.
    pub batch_fraction: f64,
    /// Probability that a request is [`RequestClass::BestEffort`] — the
    /// first traffic an overloaded pool sheds. Drawn on the same guarded
    /// stream as [`TrafficConfig::batch_fraction`]; whatever is left is
    /// [`RequestClass::Interactive`].
    pub best_effort_fraction: f64,
    /// Probability that a request carries a completion deadline. Zero (the
    /// default) disables the draw entirely, like the class fractions.
    pub deadline_fraction: f64,
    /// Inclusive `[lo, hi]` bounds, in microseconds, of a uniformly drawn
    /// deadline for the requests that carry one.
    pub deadline_range_us: (u64, u64),
    /// Probability that an opening burst is an *identical* burst: every
    /// member repeats not just the matrix but the whole request — one
    /// iteration count sampled at the burst's opening and pinned for the
    /// run, and no value updates mid-burst — the solver-inner-loop shape a
    /// micro-batching dequeue can coalesce into a single plan activation.
    /// Drawn on its own split stream only when a burst opens; zero (the
    /// default everywhere outside the routing scenarios) disables the draw
    /// entirely, so pre-existing streams replay bit-identically.
    pub identical_burst_fraction: f64,
}

impl TrafficConfig {
    /// A stream with solver-like locality: a small hot set takes most of the
    /// traffic and a third of requests open short bursts.
    pub fn skewed(corpus_size: usize, seed: u64) -> Self {
        Self {
            seed,
            corpus_size,
            hot_set_size: (corpus_size / 8).max(1),
            hot_fraction: 0.8,
            zipf_exponent: 1.8,
            burst_fraction: 0.3,
            max_burst_len: 6,
            iterations: IterationMix::Bimodal {
                short: 1,
                long: 19,
                long_fraction: 0.25,
            },
            value_update_fraction: 0.0,
            chaos_kill_fraction: 0.0,
            batch_fraction: 0.0,
            best_effort_fraction: 0.0,
            deadline_fraction: 0.0,
            deadline_range_us: (0, 0),
            identical_burst_fraction: 0.0,
        }
    }

    /// A uniform stream (every draw lands anywhere in the corpus with equal
    /// probability) — the cache-hostile baseline.
    pub fn uniform(corpus_size: usize, seed: u64) -> Self {
        Self {
            seed,
            corpus_size,
            hot_set_size: corpus_size.max(1),
            hot_fraction: 0.0,
            zipf_exponent: 1.5,
            burst_fraction: 0.0,
            max_burst_len: 1,
            iterations: IterationMix::Fixed(1),
            value_update_fraction: 0.0,
            chaos_kill_fraction: 0.0,
            batch_fraction: 0.0,
            best_effort_fraction: 0.0,
            deadline_fraction: 0.0,
            deadline_range_us: (0, 0),
            identical_burst_fraction: 0.0,
        }
    }

    /// A tiny deterministic stream for unit tests and CI smoke runs.
    pub fn smoke(corpus_size: usize) -> Self {
        Self {
            seed: 0x7AF1C,
            ..Self::skewed(corpus_size, 0x7AF1C)
        }
    }

    /// A heterogeneous-fleet scenario: moderately skewed reuse over the
    /// whole corpus with a **wide uniform iteration mix** (1..=200).
    ///
    /// Device placement depends on the *pairing* of matrix structure with
    /// iteration count — single-shot requests are launch-overhead-bound
    /// (small/low-latency devices win) while long solver runs amortize
    /// preprocessing and become bandwidth-bound (big devices win) — so a
    /// corpus mixing skew-heavy and uniform matrices under this mix
    /// exercises every device of a fleet rather than collapsing onto one.
    /// The hot set spans a quarter of the corpus so each device's slice of
    /// the corpus sees repeat traffic.
    pub fn fleet_mixed(corpus_size: usize, seed: u64) -> Self {
        Self {
            seed,
            corpus_size,
            hot_set_size: (corpus_size / 4).max(1),
            hot_fraction: 0.7,
            zipf_exponent: 1.5,
            burst_fraction: 0.25,
            max_burst_len: 5,
            iterations: IterationMix::Uniform { lo: 1, hi: 200 },
            value_update_fraction: 0.0,
            chaos_kill_fraction: 0.0,
            batch_fraction: 0.0,
            best_effort_fraction: 0.0,
            deadline_fraction: 0.0,
            deadline_range_us: (0, 0),
            identical_burst_fraction: 0.0,
        }
    }

    /// A time-stepping-solver scenario: the skewed hot-set stream where a
    /// third of requests first mutate their operator's *values* (structure
    /// unchanged). This is the incremental-update regime: a selection/plan
    /// cache keyed on content would go cold on every step, while the
    /// sparsity-keyed caches stay fully warm and only the values-embedding
    /// ELL slab refreshes.
    pub fn mutating_hot_set(corpus_size: usize, seed: u64) -> Self {
        Self {
            value_update_fraction: 0.35,
            ..Self::skewed(corpus_size, seed)
        }
    }

    /// A near-duplicate-family scenario: cache-hostile uniform traffic with
    /// no bursts, meant to be replayed over a corpus built of structurally
    /// similar matrix *families* (same generator family, nearby seeds — the
    /// multi-tenant shape where each tenant's operator is a fresh matrix
    /// that looks like a thousand already-served ones). Every request is a
    /// distinct sparsity pattern as far as exact caches are concerned, so
    /// the stream isolates what structure-class inheritance saves on the
    /// cold path.
    pub fn near_duplicate_families(corpus_size: usize, seed: u64) -> Self {
        Self {
            seed,
            corpus_size,
            hot_set_size: corpus_size.max(1),
            hot_fraction: 0.0,
            zipf_exponent: 1.5,
            burst_fraction: 0.0,
            max_burst_len: 1,
            iterations: IterationMix::Bimodal {
                short: 1,
                long: 19,
                long_fraction: 0.25,
            },
            value_update_fraction: 0.0,
            chaos_kill_fraction: 0.0,
            batch_fraction: 0.0,
            best_effort_fraction: 0.0,
            deadline_fraction: 0.0,
            deadline_range_us: (0, 0),
            identical_burst_fraction: 0.0,
        }
    }

    /// A chaos scenario: the fleet-mixed stream with a sprinkling of
    /// [`ChaosEvent::KillDevice`] annotations (~1 per 250 requests), so a
    /// serving device is hard-failed mid-stream while solver traffic is in
    /// flight. The harness decides which device dies; every other axis of
    /// the stream is bit-identical to [`TrafficConfig::fleet_mixed`].
    pub fn device_death_mid_stream(corpus_size: usize, seed: u64) -> Self {
        Self {
            chaos_kill_fraction: 0.004,
            ..Self::fleet_mixed(corpus_size, seed)
        }
    }

    /// An overload scenario: the skewed hot-set stream with a three-way
    /// class mix (30% batch, 35% best-effort, the rest interactive) and a
    /// quarter of requests carrying sub-20 ms deadlines. Offered at a rate
    /// beyond the pool's capacity — pacing is the harness's job — this is
    /// the stream an admission-controlled front door is judged on: the
    /// interactive slice must stay fast while the lower classes absorb the
    /// shedding. Matrix choice, bursts and iteration counts are
    /// bit-identical to [`TrafficConfig::skewed`].
    pub fn sustained_overload(corpus_size: usize, seed: u64) -> Self {
        Self {
            batch_fraction: 0.3,
            best_effort_fraction: 0.35,
            deadline_fraction: 0.25,
            deadline_range_us: (500, 20_000),
            ..Self::skewed(corpus_size, seed)
        }
    }

    /// A micro-batching scenario: the skewed hot-set stream made burst-heavy
    /// (nearly half of fresh draws open runs of up to 12) with 90% of those
    /// bursts *identical* — same matrix, one pinned iteration count, no
    /// mid-burst mutation — so a same-fingerprint coalescing dequeue gets
    /// long runs to fold into single plan activations. Matrix choice and
    /// burst structure replay the skewed base bit-for-bit.
    pub fn identical_burst(corpus_size: usize, seed: u64) -> Self {
        Self {
            burst_fraction: 0.45,
            max_burst_len: 12,
            identical_burst_fraction: 0.9,
            ..Self::skewed(corpus_size, seed)
        }
    }

    /// A routing-storm scenario: cache-hostile uniform traffic (no hot set,
    /// so nearly every arrival is a cold matrix that needs a full routing
    /// resolve) punctuated by identical bursts. This is the stream that
    /// separates an O(1) offloaded submit from one that pays cold routing
    /// inline: the submit path sees a flood of never-seen fingerprints
    /// while the batching dequeue still gets runs to coalesce.
    pub fn routing_storm(corpus_size: usize, seed: u64) -> Self {
        Self {
            burst_fraction: 0.35,
            max_burst_len: 10,
            identical_burst_fraction: 1.0,
            iterations: IterationMix::Uniform { lo: 1, hi: 8 },
            ..Self::uniform(corpus_size, seed)
        }
    }
}

/// The service class of one request: which priority lane it should wait in
/// and how eager an overloaded serving pool is to shed it. Decoupled from
/// the serving layer's own priority type (the stream generator knows
/// nothing about pools); harnesses map it 1:1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestClass {
    /// Latency-sensitive traffic: served first, shed last.
    #[default]
    Interactive,
    /// Throughput traffic: may wait behind interactive work.
    Batch,
    /// Scavenger traffic: the first to be shed under overload.
    BestEffort,
}

/// A membership-chaos annotation on one request: what the serving harness
/// should do to the fleet *before* submitting it. The stream owns the
/// timing; the harness owns the policy (which device, what spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChaosEvent {
    /// No membership change.
    #[default]
    None,
    /// Hard-fail one serving device ([`TrafficConfig::chaos_kill_fraction`]).
    KillDevice,
}

/// One request of a traffic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficRequest {
    /// Index of the target matrix in the caller's corpus.
    pub matrix_index: usize,
    /// Number of SpMV iterations the request runs.
    pub iterations: usize,
    /// Position within a burst (0 = fresh draw, 1.. = replay of the previous
    /// request's matrix). Useful for asserting burst structure in tests.
    pub burst_position: usize,
    /// Whether the caller should mutate the target matrix's values (keeping
    /// its sparsity pattern) before serving this request. Always `false`
    /// when [`TrafficConfig::value_update_fraction`] is zero.
    pub value_update: bool,
    /// Membership chaos to inject before this request. Always
    /// [`ChaosEvent::None`] when [`TrafficConfig::chaos_kill_fraction`] is
    /// zero.
    pub chaos: ChaosEvent,
    /// Service class of the request. Always [`RequestClass::Interactive`]
    /// when both class fractions are zero.
    pub class: RequestClass,
    /// Completion deadline in microseconds from submission, for harnesses
    /// replaying the stream against a deadline-aware pool. Always `None`
    /// when [`TrafficConfig::deadline_fraction`] is zero.
    pub deadline_us: Option<u64>,
}

/// Deterministic iterator over a [`TrafficConfig`]'s request stream.
///
/// The generator is infinite; bound it with [`Iterator::take`].
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    /// Draws deciding hot/cold, burst openings and burst lengths.
    structure_rng: SplitMix64,
    /// Draws for iteration counts, decoupled so changing the iteration mix
    /// does not perturb which matrices are requested.
    iteration_rng: SplitMix64,
    /// Draws deciding value updates, decoupled for the same reason: turning
    /// mutation on or off never perturbs matrix choice or iteration counts.
    mutation_rng: SplitMix64,
    /// Draws deciding chaos events, decoupled like the others: enabling a
    /// chaos fraction never perturbs matrix choice, iteration counts or
    /// value updates, so a chaos stream differs from its calm base only in
    /// the annotations.
    chaos_rng: SplitMix64,
    /// Draws deciding service classes and deadlines, decoupled like the
    /// others: an overload scenario differs from its calm base only in the
    /// class/deadline annotations, never in what is requested.
    admission_rng: SplitMix64,
    /// Draws deciding whether an opening burst is an identical burst,
    /// decoupled like the others: enabling identical bursts never perturbs
    /// matrix choice, burst structure, chaos or admission annotations.
    identity_rng: SplitMix64,
    /// Shuffled map from popularity rank to corpus index, so the hot set is
    /// spread across the corpus (and therefore across serving shards) instead
    /// of clustering at the low indices.
    rank_to_index: Vec<usize>,
    /// Remaining replays of `current` before a fresh draw.
    burst_left: usize,
    current: usize,
    burst_position: usize,
    /// `Some(n)` while inside an identical burst: every member (including
    /// the opener) carries exactly `n` iterations and no value update.
    pinned_iterations: Option<usize>,
}

impl TrafficGenerator {
    /// Builds the deterministic stream described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.corpus_size` is zero or `config.zipf_exponent <= 1`.
    pub fn new(config: &TrafficConfig) -> Self {
        assert!(config.corpus_size > 0, "traffic needs a non-empty corpus");
        assert!(
            config.zipf_exponent > 1.0,
            "zipf_exponent must be > 1 (got {})",
            config.zipf_exponent
        );
        let mut root = SplitMix64::new(config.seed);
        let mut permutation_rng = root.split(0x9A9);
        let mut rank_to_index: Vec<usize> = (0..config.corpus_size).collect();
        permutation_rng.shuffle(&mut rank_to_index);
        Self {
            structure_rng: root.split(0x57),
            iteration_rng: root.split(0x17E),
            mutation_rng: root.split(0x3B),
            chaos_rng: root.split(0xC4A),
            // Split last: the admission stream must not shift the splits the
            // pre-overload streams were derived from.
            admission_rng: root.split(0xAD),
            // Split after 0xAD for the same reason: the identity stream is
            // newer still, and every earlier split must keep its value.
            identity_rng: root.split(0x1DE),
            rank_to_index,
            config: config.clone(),
            burst_left: 0,
            current: 0,
            burst_position: 0,
            pinned_iterations: None,
        }
    }

    /// The hot set as corpus indices, most popular first.
    ///
    /// Useful for tests asserting that skew concentrates on these indices.
    pub fn hot_set(&self) -> &[usize] {
        let hot = self.config.hot_set_size.clamp(1, self.config.corpus_size);
        &self.rank_to_index[..hot]
    }

    /// Draws the next fresh (non-burst) matrix index.
    fn draw_index(&mut self) -> usize {
        let hot = self.config.hot_set_size.clamp(1, self.config.corpus_size);
        if self.structure_rng.next_f64() < self.config.hot_fraction.clamp(0.0, 1.0) {
            // Zipf-like rank sampling inside the hot set: rank 1 is hottest.
            let rank = self
                .structure_rng
                .next_power_law(self.config.zipf_exponent, hot);
            self.rank_to_index[rank - 1]
        } else {
            self.rank_to_index[self.structure_rng.next_below(self.config.corpus_size)]
        }
    }
}

impl Iterator for TrafficGenerator {
    type Item = TrafficRequest;

    fn next(&mut self) -> Option<TrafficRequest> {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.burst_position += 1;
        } else {
            self.current = self.draw_index();
            self.burst_position = 0;
            self.pinned_iterations = None;
            if self.config.max_burst_len >= 2
                && self.structure_rng.next_f64() < self.config.burst_fraction.clamp(0.0, 1.0)
            {
                // The burst replays `current` for the next `len - 1` requests.
                let len = self
                    .structure_rng
                    .next_range(2, self.config.max_burst_len + 1);
                self.burst_left = len - 1;
                // Guarded draw on the identity stream, made only when a
                // burst opens: an identical burst samples its iteration
                // count once here and pins it for the whole run. With the
                // fraction at zero the stream is never advanced, so every
                // pre-existing scenario replays bit-identically.
                if self.config.identical_burst_fraction > 0.0
                    && self.identity_rng.next_f64()
                        < self.config.identical_burst_fraction.clamp(0.0, 1.0)
                {
                    self.pinned_iterations =
                        Some(self.config.iterations.sample(&mut self.iteration_rng));
                }
            }
        }
        // Guarded draw: with the fraction at zero the mutation RNG is never
        // advanced, so pre-existing configs replay their exact streams. The
        // draw still advances inside an identical burst (keeping non-burst
        // requests aligned with the calm base), but its outcome is forced
        // off: an identical burst never mutates its operator mid-run.
        let value_update = self.config.value_update_fraction > 0.0
            && self.mutation_rng.next_f64() < self.config.value_update_fraction.clamp(0.0, 1.0)
            && self.pinned_iterations.is_none();
        // The chaos draw is guarded the same way, on its own stream.
        let chaos = if self.config.chaos_kill_fraction > 0.0
            && self.chaos_rng.next_f64() < self.config.chaos_kill_fraction.clamp(0.0, 1.0)
        {
            ChaosEvent::KillDevice
        } else {
            ChaosEvent::None
        };
        // Class and deadline draws share the admission stream, each behind
        // its own zero-fraction guard: every pre-overload scenario leaves
        // the stream untouched, so its requests replay bit-identically with
        // the default annotations.
        let class = if self.config.batch_fraction > 0.0 || self.config.best_effort_fraction > 0.0 {
            let batch = self.config.batch_fraction.clamp(0.0, 1.0);
            let best_effort = self.config.best_effort_fraction.clamp(0.0, 1.0 - batch);
            let draw = self.admission_rng.next_f64();
            if draw < batch {
                RequestClass::Batch
            } else if draw < batch + best_effort {
                RequestClass::BestEffort
            } else {
                RequestClass::Interactive
            }
        } else {
            RequestClass::Interactive
        };
        let deadline_us = (self.config.deadline_fraction > 0.0
            && self.admission_rng.next_f64() < self.config.deadline_fraction.clamp(0.0, 1.0))
        .then(|| {
            let (lo, hi) = self.config.deadline_range_us;
            let lo = lo.max(1);
            let hi = hi.max(lo);
            self.admission_rng.next_range(lo as usize, hi as usize + 1) as u64
        });
        // An identical burst replays its pinned count (sampled once at the
        // opening); everything else samples per request as always.
        let iterations = match self.pinned_iterations {
            Some(pinned) => pinned,
            None => self.config.iterations.sample(&mut self.iteration_rng),
        };
        Some(TrafficRequest {
            matrix_index: self.current,
            iterations,
            burst_position: self.burst_position,
            value_update,
            chaos,
            class,
            deadline_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn take(config: &TrafficConfig, n: usize) -> Vec<TrafficRequest> {
        TrafficGenerator::new(config).take(n).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let config = TrafficConfig::skewed(64, 42);
        assert_eq!(take(&config, 5_000), take(&config, 5_000));
    }

    #[test]
    fn different_seeds_differ() {
        let a = take(&TrafficConfig::skewed(64, 1), 500);
        let b = take(&TrafficConfig::skewed(64, 2), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn indices_stay_in_corpus() {
        for request in take(&TrafficConfig::skewed(17, 3), 2_000) {
            assert!(request.matrix_index < 17);
            assert!(request.iterations >= 1);
        }
    }

    #[test]
    fn hot_set_dominates_a_skewed_stream() {
        let config = TrafficConfig::skewed(64, 7);
        let generator = TrafficGenerator::new(&config);
        let hot: Vec<usize> = generator.hot_set().to_vec();
        assert_eq!(hot.len(), 8);
        let requests = take(&config, 10_000);
        let in_hot = requests
            .iter()
            .filter(|r| hot.contains(&r.matrix_index))
            .count();
        // hot_fraction is 0.8 and bursts replay hot matrices proportionally.
        assert!(
            in_hot as f64 > 0.7 * requests.len() as f64,
            "hot set got {in_hot}/{} requests",
            requests.len()
        );
    }

    #[test]
    fn zipf_ranks_are_ordered_by_popularity() {
        let config = TrafficConfig {
            burst_fraction: 0.0,
            hot_fraction: 1.0,
            ..TrafficConfig::skewed(32, 11)
        };
        let generator = TrafficGenerator::new(&config);
        let hottest = generator.hot_set()[0];
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for request in take(&config, 20_000) {
            *counts.entry(request.matrix_index).or_default() += 1;
        }
        let max_count = counts.values().copied().max().unwrap();
        assert_eq!(counts[&hottest], max_count, "rank 1 must be the hottest");
    }

    #[test]
    fn bursts_replay_the_previous_matrix() {
        let requests = take(&TrafficConfig::skewed(64, 13), 5_000);
        let mut burst_requests = 0;
        for pair in requests.windows(2) {
            if pair[1].burst_position > 0 {
                assert_eq!(pair[1].matrix_index, pair[0].matrix_index);
                assert_eq!(pair[1].burst_position, pair[0].burst_position + 1);
                burst_requests += 1;
            }
        }
        assert!(
            burst_requests > 100,
            "expected bursts, saw {burst_requests}"
        );
    }

    #[test]
    fn uniform_stream_has_no_bursts_and_spreads_out() {
        let config = TrafficConfig::uniform(32, 5);
        let requests = take(&config, 10_000);
        assert!(requests.iter().all(|r| r.burst_position == 0));
        let mut counts = vec![0usize; 32];
        for r in &requests {
            counts[r.matrix_index] += 1;
        }
        // Every matrix shows up; no matrix takes more than a few percent.
        assert!(counts.iter().all(|&c| c > 0));
        assert!(*counts.iter().max().unwrap() < 1_000);
    }

    #[test]
    fn iteration_mixes_respect_bounds() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..2_000 {
            assert_eq!(IterationMix::Fixed(7).sample(&mut rng), 7);
            let u = IterationMix::Uniform { lo: 3, hi: 9 }.sample(&mut rng);
            assert!((3..=9).contains(&u));
            let b = IterationMix::Bimodal {
                short: 1,
                long: 19,
                long_fraction: 0.5,
            }
            .sample(&mut rng);
            assert!(b == 1 || b == 19);
        }
    }

    #[test]
    fn bimodal_mix_hits_both_modes() {
        let config = TrafficConfig::skewed(8, 21);
        let requests = take(&config, 4_000);
        let long = requests.iter().filter(|r| r.iterations == 19).count();
        let short = requests.iter().filter(|r| r.iterations == 1).count();
        assert_eq!(long + short, requests.len());
        assert!(long > 500 && short > 2_000, "long {long} short {short}");
    }

    #[test]
    fn iteration_mix_does_not_perturb_matrix_choice() {
        let base = TrafficConfig::skewed(64, 31);
        let other = TrafficConfig {
            iterations: IterationMix::Fixed(5),
            ..base.clone()
        };
        let a: Vec<usize> = take(&base, 2_000).iter().map(|r| r.matrix_index).collect();
        let b: Vec<usize> = take(&other, 2_000).iter().map(|r| r.matrix_index).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_mixed_spans_the_iteration_range_and_replays() {
        let config = TrafficConfig::fleet_mixed(48, 0xF1EE7);
        let requests = take(&config, 8_000);
        assert_eq!(requests, take(&config, 8_000), "stream must replay");
        assert!(requests.iter().all(|r| (1..=200).contains(&r.iterations)));
        // Both placement regimes are exercised: launch-bound single shots
        // and long amortizing solver runs.
        let short = requests.iter().filter(|r| r.iterations <= 5).count();
        let long = requests.iter().filter(|r| r.iterations >= 150).count();
        assert!(short > 100, "short runs {short}");
        assert!(long > 100, "long runs {long}");
        // The whole corpus is touched, so every slice of a mixed corpus
        // (skew-heavy and uniform members alike) sees traffic.
        let mut seen = [false; 48];
        for r in &requests {
            seen[r.matrix_index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn legacy_scenarios_never_request_value_updates() {
        for config in [
            TrafficConfig::skewed(32, 9),
            TrafficConfig::uniform(32, 9),
            TrafficConfig::smoke(32),
            TrafficConfig::fleet_mixed(32, 9),
            TrafficConfig::near_duplicate_families(32, 9),
            TrafficConfig::mutating_hot_set(32, 9),
        ] {
            let requests = take(&config, 2_000);
            assert!(requests.iter().all(|r| r.chaos == ChaosEvent::None));
        }
        for config in [
            TrafficConfig::skewed(32, 9),
            TrafficConfig::uniform(32, 9),
            TrafficConfig::smoke(32),
            TrafficConfig::fleet_mixed(32, 9),
            TrafficConfig::near_duplicate_families(32, 9),
        ] {
            assert!(take(&config, 2_000).iter().all(|r| !r.value_update));
        }
    }

    #[test]
    fn chaos_scenarios_fire_their_events_and_replay() {
        let death = TrafficConfig::device_death_mid_stream(32, 0xC405);
        let requests = take(&death, 4_000);
        assert_eq!(requests, take(&death, 4_000), "chaos stream must replay");
        let kills = requests
            .iter()
            .filter(|r| r.chaos == ChaosEvent::KillDevice)
            .count();
        assert!(kills >= 1, "a mid-stream death must actually occur");
        assert!(
            requests
                .iter()
                .all(|r| matches!(r.chaos, ChaosEvent::None | ChaosEvent::KillDevice)),
            "death scenario draws kills only"
        );
    }

    #[test]
    fn chaos_does_not_perturb_matrix_choice_or_iterations() {
        let calm = TrafficConfig::fleet_mixed(48, 77);
        let chaotic = TrafficConfig::device_death_mid_stream(48, 77);
        let a = take(&calm, 3_000);
        let b = take(&chaotic, 3_000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix_index, y.matrix_index);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.burst_position, y.burst_position);
            assert_eq!(x.value_update, y.value_update);
        }
        assert!(b.iter().any(|r| r.chaos != ChaosEvent::None));
    }

    #[test]
    fn mutating_hot_set_replays_and_mutates_at_the_configured_rate() {
        let config = TrafficConfig::mutating_hot_set(32, 17);
        let requests = take(&config, 10_000);
        assert_eq!(requests, take(&config, 10_000), "stream must replay");
        let updates = requests.iter().filter(|r| r.value_update).count();
        let rate = updates as f64 / requests.len() as f64;
        assert!(
            (rate - config.value_update_fraction).abs() < 0.03,
            "update rate {rate} vs configured {}",
            config.value_update_fraction
        );
    }

    #[test]
    fn value_updates_do_not_perturb_matrix_choice_or_iterations() {
        let base = TrafficConfig::skewed(64, 23);
        let mutating = TrafficConfig {
            value_update_fraction: 0.5,
            ..base.clone()
        };
        let a = take(&base, 2_000);
        let b = take(&mutating, 2_000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix_index, y.matrix_index);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.burst_position, y.burst_position);
        }
        assert!(b.iter().any(|r| r.value_update));
    }

    #[test]
    fn near_duplicate_families_is_cache_hostile() {
        let config = TrafficConfig::near_duplicate_families(48, 0xFA);
        let requests = take(&config, 5_000);
        assert_eq!(requests, take(&config, 5_000), "stream must replay");
        assert!(requests.iter().all(|r| r.burst_position == 0));
        let mut seen = [false; 48];
        for r in &requests {
            seen[r.matrix_index] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform draw touches the corpus");
    }

    #[test]
    fn overload_scenarios_fire_their_annotations_and_replay() {
        let config = TrafficConfig::sustained_overload(32, 0x0AD5);
        let requests = take(&config, 6_000);
        assert_eq!(requests, take(&config, 6_000), "overload stream replays");
        let batch = requests
            .iter()
            .filter(|r| r.class == RequestClass::Batch)
            .count() as f64;
        let best_effort = requests
            .iter()
            .filter(|r| r.class == RequestClass::BestEffort)
            .count() as f64;
        let interactive = requests
            .iter()
            .filter(|r| r.class == RequestClass::Interactive)
            .count() as f64;
        let n = requests.len() as f64;
        assert!(
            (batch / n - config.batch_fraction).abs() < 0.03,
            "batch rate {} vs {}",
            batch / n,
            config.batch_fraction
        );
        assert!(
            (best_effort / n - config.best_effort_fraction).abs() < 0.03,
            "best-effort rate {} vs {}",
            best_effort / n,
            config.best_effort_fraction
        );
        assert!(interactive > 0.0, "some interactive traffic remains");
        let with_deadline = requests.iter().filter(|r| r.deadline_us.is_some()).count();
        let rate = with_deadline as f64 / n;
        assert!(
            (rate - config.deadline_fraction).abs() < 0.03,
            "deadline rate {rate} vs {}",
            config.deadline_fraction
        );
        let (lo, hi) = config.deadline_range_us;
        assert!(requests
            .iter()
            .filter_map(|r| r.deadline_us)
            .all(|d| (lo..=hi).contains(&d)));
    }

    #[test]
    fn legacy_scenarios_never_carry_classes_or_deadlines() {
        for config in [
            TrafficConfig::skewed(32, 9),
            TrafficConfig::uniform(32, 9),
            TrafficConfig::smoke(32),
            TrafficConfig::fleet_mixed(32, 9),
            TrafficConfig::near_duplicate_families(32, 9),
            TrafficConfig::mutating_hot_set(32, 9),
            TrafficConfig::device_death_mid_stream(32, 9),
        ] {
            for request in take(&config, 2_000) {
                assert_eq!(request.class, RequestClass::Interactive);
                assert_eq!(request.deadline_us, None);
            }
        }
    }

    #[test]
    fn overload_annotations_do_not_perturb_what_is_requested() {
        // The admission stream is split last and guarded by zero fractions:
        // an overload scenario requests exactly what its calm base does,
        // differing only in the class/deadline annotations — and the calm
        // base is bit-identical to its pre-overload self.
        let calm = TrafficConfig::skewed(64, 0xBEEF);
        let overloaded = TrafficConfig::sustained_overload(64, 0xBEEF);
        let a = take(&calm, 3_000);
        let b = take(&overloaded, 3_000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix_index, y.matrix_index);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.burst_position, y.burst_position);
            assert_eq!(x.value_update, y.value_update);
            assert_eq!(x.chaos, y.chaos);
        }
        assert!(b.iter().any(|r| r.class != RequestClass::Interactive));
        assert!(b.iter().any(|r| r.deadline_us.is_some()));

        // Enabling only the deadline draw must not borrow draws from the
        // class guard (and vice versa): each axis is guarded independently.
        let deadlines_only = TrafficConfig {
            deadline_fraction: 0.5,
            deadline_range_us: (100, 1_000),
            ..calm.clone()
        };
        let classes_only = TrafficConfig {
            batch_fraction: 0.4,
            ..calm.clone()
        };
        let d = take(&deadlines_only, 3_000);
        let c = take(&classes_only, 3_000);
        assert!(d.iter().all(|r| r.class == RequestClass::Interactive));
        assert!(d.iter().any(|r| r.deadline_us.is_some()));
        assert!(c.iter().all(|r| r.deadline_us.is_none()));
        assert!(c.iter().any(|r| r.class == RequestClass::Batch));
    }

    #[test]
    fn identical_burst_scenario_pins_whole_bursts_and_replays() {
        let config = TrafficConfig::identical_burst(48, 0x1DE7);
        let requests = take(&config, 8_000);
        assert_eq!(requests, take(&config, 8_000), "stream must replay");
        // Inside a burst, an identical run repeats the matrix AND the
        // iteration count. With the fraction at 0.9 the overwhelming
        // majority of bursts are identical; count the pinned ones.
        let mut pinned_members = 0;
        let mut varied_members = 0;
        for pair in requests.windows(2) {
            if pair[1].burst_position > 0 {
                assert_eq!(pair[1].matrix_index, pair[0].matrix_index);
                if pair[1].iterations == pair[0].iterations {
                    pinned_members += 1;
                } else {
                    varied_members += 1;
                }
            }
        }
        assert!(
            pinned_members > 1_000,
            "expected many identical-burst members, saw {pinned_members}"
        );
        // The 10% non-identical bursts draw per member from the bimodal
        // mix, so some members must differ from their predecessor.
        assert!(
            varied_members > 10,
            "non-identical bursts must survive, saw {varied_members}"
        );
    }

    #[test]
    fn routing_storm_floods_cold_matrices_with_fully_identical_bursts() {
        let config = TrafficConfig::routing_storm(64, 0x5702);
        let requests = take(&config, 8_000);
        assert_eq!(requests, take(&config, 8_000), "stream must replay");
        // Every burst is identical (fraction 1.0): matrix and iterations
        // both repeat for the entire run.
        for pair in requests.windows(2) {
            if pair[1].burst_position > 0 {
                assert_eq!(pair[1].matrix_index, pair[0].matrix_index);
                assert_eq!(
                    pair[1].iterations, pair[0].iterations,
                    "a routing-storm burst must pin its iteration count"
                );
            }
        }
        assert!(
            requests.iter().any(|r| r.burst_position > 0),
            "the storm must contain bursts"
        );
        // The fresh draws stay cache-hostile: the whole corpus is touched.
        let mut seen = [false; 64];
        for r in &requests {
            seen[r.matrix_index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn identity_draws_do_not_perturb_what_is_requested() {
        // The identity stream is split after every pre-existing one and
        // drawn only at burst openings: an identical-burst scenario keeps
        // its base's matrix choice, burst structure and annotations
        // bit-for-bit, differing only in iteration pinning.
        let base = TrafficConfig {
            burst_fraction: 0.45,
            max_burst_len: 12,
            ..TrafficConfig::skewed(64, 0xB45E)
        };
        let pinned = TrafficConfig {
            identical_burst_fraction: 0.9,
            ..base.clone()
        };
        let a = take(&base, 4_000);
        let b = take(&pinned, 4_000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix_index, y.matrix_index);
            assert_eq!(x.burst_position, y.burst_position);
            assert_eq!(x.value_update, y.value_update);
            assert_eq!(x.chaos, y.chaos);
            assert_eq!(x.class, y.class);
            assert_eq!(x.deadline_us, y.deadline_us);
        }
        // The legacy scenarios themselves replay bit-identically: their
        // fraction is zero, so the identity stream is never drawn.
        assert_eq!(take(&TrafficConfig::skewed(64, 0xB45E), 4_000), {
            let legacy = TrafficConfig {
                identical_burst_fraction: 0.0,
                ..TrafficConfig::skewed(64, 0xB45E)
            };
            take(&legacy, 4_000)
        });
    }

    #[test]
    fn identical_bursts_suppress_value_updates_without_shifting_the_draw() {
        // Value updates are forced off inside an identical burst but the
        // mutation stream still advances, so every request *outside* the
        // pinned bursts mutates exactly when its calm base does.
        let base = TrafficConfig {
            burst_fraction: 0.45,
            max_burst_len: 12,
            value_update_fraction: 0.35,
            ..TrafficConfig::skewed(64, 0x3B1D)
        };
        let pinned = TrafficConfig {
            identical_burst_fraction: 1.0,
            ..base.clone()
        };
        let a = take(&base, 4_000);
        let b = take(&pinned, 4_000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix_index, y.matrix_index);
            assert_eq!(x.burst_position, y.burst_position);
            // Pinning only ever removes updates, never adds or moves them.
            if y.value_update {
                assert!(x.value_update);
            }
            if x.value_update && !y.value_update {
                // Suppressed updates are exactly the in-burst ones. The
                // opener of an identical burst is pinned too, so only a
                // non-burst singleton keeps every base update.
                assert!(
                    y.burst_position > 0 || x.burst_position == 0,
                    "suppression outside a burst member"
                );
            }
        }
        assert!(b.iter().any(|r| r.value_update), "updates survive pinning");
        assert!(
            b.iter().all(|r| !(r.value_update && r.burst_position > 0)),
            "no identical-burst member mutates mid-run"
        );
    }

    /// FNV-1a over every field of the first `n` requests of a stream.
    fn digest(config: &TrafficConfig, n: usize) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for r in take(config, n) {
            for word in [
                r.matrix_index as u64,
                r.iterations as u64,
                r.burst_position as u64,
                u64::from(r.value_update),
                r.chaos as u64,
                r.class as u64,
                r.deadline_us.unwrap_or(u64::MAX),
            ] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn benchmark_streams_replay_their_pinned_digests() {
        // The streams the end-to-end benchmark draws from, over its 44-matrix
        // corpus and seeds: a change to a guard or a split moves a digest.
        let burst_mutating = TrafficConfig {
            value_update_fraction: 0.35,
            ..TrafficConfig::identical_burst(44, 1)
        };
        for (config, expected) in [
            (TrafficConfig::skewed(44, 1), 0x2501_c99f_e13a_c02d),
            (TrafficConfig::skewed(44, 7), 0x5f05_c7b1_1fe6_2d18),
            (TrafficConfig::identical_burst(44, 1), 0xee04_dea4_fcb1_57f6),
            (TrafficConfig::identical_burst(44, 7), 0xdb5a_cdee_7165_32fd),
            (burst_mutating, 0x22ff_2b85_0fe1_96b7),
        ] {
            assert_eq!(digest(&config, 1_000), expected, "stream moved: {config:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty corpus")]
    fn empty_corpus_panics() {
        TrafficGenerator::new(&TrafficConfig::skewed(0, 1));
    }

    #[test]
    fn single_matrix_corpus_works() {
        for request in take(&TrafficConfig::smoke(1), 100) {
            assert_eq!(request.matrix_index, 0);
        }
    }
}

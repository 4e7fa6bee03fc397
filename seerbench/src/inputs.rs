//! Workload inputs: the request sequence every phase of a run replays,
//! derived from the seed alone, and the caller-side value mutations.
//!
//! Each phase builds its own [`Inputs`] over the shared [`Material`], so the
//! engine phase, the pool phase and the traced loop see the same requests
//! (same matrices, vectors, iteration counts, policies and mutations) as
//! separate objects: no phase inherits another's memoized fingerprint or
//! profile, and mutating workloads mutate private copies.

use std::collections::VecDeque;
use std::sync::Arc;

use seer_core::inference::SelectionPolicy;
use seer_sparse::traffic::{TrafficConfig, TrafficGenerator};
use seer_sparse::{CsrMatrix, Scalar, SplitMix64};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed repeat traffic over the training collection, caches warm.
    WarmSkewed,
    /// Every request a never-served sparsity pattern, over a 2-device fleet.
    ColdUnseen,
    /// Identical bursts with in-place value mutations, routed and batched.
    BurstMutating,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WarmSkewed,
        Workload::ColdUnseen,
        Workload::BurstMutating,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSkewed => "warm_skewed",
            Workload::ColdUnseen => "cold_unseen",
            Workload::BurstMutating => "burst_mutating",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Length of the fixed request prefix every deterministic metric is
    /// computed over. Cold requests are costlier to account for (every one
    /// is a fresh matrix), so their prefix is shorter: a whole number of
    /// stratified superblocks.
    pub fn prefix(self, templates: usize) -> usize {
        match self {
            Workload::ColdUnseen => 24 * superblock(templates),
            _ => 32_768,
        }
    }

    /// Requests generated per refill. Generation runs with nothing in
    /// flight and is excluded from every timed interval.
    pub fn chunk(self) -> usize {
        match self {
            Workload::ColdUnseen => 32,
            _ => 1_024,
        }
    }
}

/// Requests per stratified cold superblock: every template four times.
pub fn superblock(templates: usize) -> usize {
    4 * templates
}

/// Share of long requests in the cold sequence, as in the traffic
/// generator's bimodal mix.
const LONG_FRACTION: f64 = 0.25;

/// Iteration count of a short request (every workload's iteration mix is
/// bimodal over these two, as in the traffic generator's skewed stream).
pub const SHORT_ITERATIONS: usize = 1;
/// Iteration count of a long (solver) request.
pub const LONG_ITERATIONS: usize = 19;

/// Which matrix a request targets.
#[derive(Debug, Clone)]
pub enum Target {
    /// An index into the phase's own corpus (warm_skewed, burst_mutating).
    Corpus(usize),
    /// A freshly derived matrix no phase has served (cold_unseen).
    Fresh(Arc<CsrMatrix>),
}

/// A caller-side value mutation applied to a corpus matrix just before the
/// request that carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `map_values` with a bounded remap keyed by the mutation's step.
    Map {
        /// Sequence number of the mutation in the stream.
        step: u64,
    },
    /// `update_values` with one of the matrix's two pre-built value versions.
    Update {
        /// Which version (0 or 1).
        version: usize,
    },
}

/// One request of a workload's sequence.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in the sequence (0-based); pool responses are checked
    /// against the engine oracle at the same index.
    pub index: u64,
    /// The matrix served.
    pub target: Target,
    /// The dense input vector.
    pub x: Arc<Vec<Scalar>>,
    /// SpMV iterations the selection optimizes for.
    pub iterations: usize,
    /// Selection policy.
    pub policy: SelectionPolicy,
    /// Value mutation to apply before serving, if any.
    pub mutation: Option<Mutation>,
    /// Whether this request opens a caller group (a burst sent with one
    /// `submit_batch`, or a single request).
    pub group_start: bool,
    /// Whether the target is in the traffic's hot set.
    pub hot: bool,
    /// Whether the request replays the previous request's matrix.
    pub burst: bool,
}

impl Request {
    /// Whether the target is a never-served pattern.
    pub fn fresh(&self) -> bool {
        matches!(self.target, Target::Fresh(_))
    }
}

/// What every phase of one run shares: the corpus served (warm_skewed,
/// burst_mutating) or the held-out templates fresh patterns derive from
/// (cold_unseen), their dense inputs, and the value versions
/// `update_values` mutations write.
#[derive(Debug)]
pub struct Material {
    /// The workload the material serves.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Corpus matrices by traffic index, or cold templates.
    pub corpus: Vec<Arc<CsrMatrix>>,
    /// Dense input vector per corpus entry.
    pub xs: Vec<Arc<Vec<Scalar>>>,
    /// Whether each corpus entry is in the hot set.
    pub hot: Vec<bool>,
    /// Two value versions per corpus entry (burst_mutating only).
    pub bank: Vec<[Arc<Vec<Scalar>>; 2]>,
}

impl Material {
    /// Lays out `base` (the training collection for warm_skewed and
    /// burst_mutating, the held-out templates for cold_unseen) for `seed`.
    ///
    /// The traffic generator draws its hot set from a seed-shuffled order of
    /// the corpus. Left alone, the seed would decide *which matrices* are
    /// hot, and with matrix sizes spanning two orders of magnitude that
    /// alone would move throughput by far more than any code change. So the
    /// corpus is laid out such that the generator's hot ranks always land on
    /// the same matrices: the seed varies the order, bursts and mix of
    /// requests, not the hot set.
    ///
    /// The hot ranks go to the matrices whose size is closest to the
    /// corpus median. The hottest matrix takes about half of all requests,
    /// so a median latency sits on the boundary between it and the next
    /// ones; keeping their sizes alike keeps that median from jumping
    /// between two very different values as the mix shifts.
    pub fn new(workload: Workload, seed: u64, base: &[Arc<CsrMatrix>]) -> Self {
        let n = base.len();
        let mut corpus = base.to_vec();
        let mut hot = vec![false; n];
        if let Some(config) = traffic_config(workload, n, seed) {
            let mut sizes: Vec<usize> = base.iter().map(|m| m.nnz()).collect();
            sizes.sort_unstable();
            let middle = sizes[n / 2];
            let mut by_rank: Vec<usize> = (0..n).collect();
            by_rank.sort_by_key(|&i| (base[i].nnz().abs_diff(middle), i));
            let hot_set = TrafficGenerator::new(&config).hot_set().to_vec();
            let mut rest = by_rank[hot_set.len()..].iter();
            for slot in 0..n {
                let source = match hot_set.iter().position(|&h| h == slot) {
                    Some(rank) => {
                        hot[slot] = true;
                        by_rank[rank]
                    }
                    None => *rest.next().expect("one matrix per slot"),
                };
                corpus[slot] = Arc::clone(&base[source]);
            }
        }
        let xs = corpus
            .iter()
            .map(|m| Arc::new(dense_input(m.cols())))
            .collect();
        let bank = if workload == Workload::BurstMutating {
            corpus
                .iter()
                .map(|m| [0, 1].map(|version| Arc::new(value_version(m.nnz(), version))))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            workload,
            seed,
            corpus,
            xs,
            hot,
            bank,
        }
    }
}

/// The traffic stream of a corpus workload; `None` for cold_unseen, whose
/// sequence is a balanced schedule instead.
pub fn traffic_config(workload: Workload, corpus: usize, seed: u64) -> Option<TrafficConfig> {
    match workload {
        Workload::WarmSkewed => Some(TrafficConfig::skewed(corpus, seed)),
        Workload::BurstMutating => Some(TrafficConfig {
            value_update_fraction: 0.35,
            ..TrafficConfig::identical_burst(corpus, seed)
        }),
        Workload::ColdUnseen => None,
    }
}

/// The dense input vector for a matrix with `cols` columns: deterministic
/// and not constant, so a wrong column order changes the result.
pub fn dense_input(cols: usize) -> Vec<Scalar> {
    (0..cols).map(|j| 1.0 + (j % 13) as Scalar / 16.0).collect()
}

/// Value version `version` for a matrix with `nnz` stored entries, in
/// `[1, 2)`.
fn value_version(nnz: usize, version: usize) -> Vec<Scalar> {
    (0..nnz as u64)
        .map(|j| {
            let mixed = j.wrapping_mul(0x9E37_79B9) ^ ((version as u64 + 1) * 0x55);
            1.0 + (mixed % 1000) as Scalar / 1000.0
        })
        .collect()
}

/// Applies `mutation` to a corpus matrix in place. `Arc::make_mut` copies
/// the matrix first when a request still in flight shares it
/// (copy-on-write), so that request keeps the values it was sent with.
pub fn apply_mutation(
    matrix: &mut Arc<CsrMatrix>,
    mutation: Mutation,
    bank: &[Arc<Vec<Scalar>>; 2],
) {
    let matrix = Arc::make_mut(matrix);
    match mutation {
        Mutation::Map { step } => {
            let shift = (step % 97) as Scalar / 97.0;
            matrix.map_values(|_, _, v| 1.0 + (v * 1.618_033_988_749_895 + shift).fract());
        }
        Mutation::Update { version } => matrix
            .update_values(&bank[version])
            .expect("value versions are built with the matrix's nnz"),
    }
}

/// A copy of `template` with its rows in a seeded random order: the same
/// row-length distribution and columns, a sparsity pattern (and therefore a
/// sparsity fingerprint) no one has served.
pub fn permute_rows(template: &CsrMatrix, rng: &mut SplitMix64) -> CsrMatrix {
    let mut order: Vec<usize> = (0..template.rows()).collect();
    rng.shuffle(&mut order);
    let (offsets_in, cols_in, vals_in) = (
        template.row_offsets(),
        template.col_indices(),
        template.values(),
    );
    let mut offsets = Vec::with_capacity(order.len() + 1);
    let mut cols = Vec::with_capacity(template.nnz());
    let mut vals = Vec::with_capacity(template.nnz());
    offsets.push(0);
    for &row in &order {
        let span = offsets_in[row]..offsets_in[row + 1];
        cols.extend_from_slice(&cols_in[span.clone()]);
        vals.extend_from_slice(&vals_in[span]);
        offsets.push(cols.len());
    }
    CsrMatrix::try_new(template.rows(), template.cols(), offsets, cols, vals)
        .expect("a row permutation of a valid matrix is valid")
}

/// Salt of the measured cold sequence's pattern seeds.
const MEASURED_SALT: u64 = 0x5EE_D0C5;
/// Salt of the cold warm-up patterns: disjoint from every measured pattern.
const WARMUP_SALT: u64 = 0x0A_12E5;

fn pattern_rng(seed: u64, salt: u64, index: u64) -> SplitMix64 {
    let mut root = SplitMix64::new(seed ^ salt);
    root.split(index)
}

/// `count` fresh cold requests for warm-up, alternating both policies so
/// both selection paths have run once before timing. Their patterns come
/// from a salt of their own, not from the measured sequence's.
pub fn cold_warmup(
    templates: &[Arc<CsrMatrix>],
    count: usize,
) -> Vec<(CsrMatrix, Vec<Scalar>, SelectionPolicy)> {
    (0..count)
        .map(|i| {
            let template = &templates[i * 7 % templates.len()];
            let matrix = permute_rows(template, &mut pattern_rng(0, WARMUP_SALT, i as u64));
            let x = dense_input(matrix.cols());
            let policy = if i % 2 == 0 {
                SelectionPolicy::Adaptive
            } else {
                SelectionPolicy::GatheredOnly
            };
            (matrix, x, policy)
        })
        .collect()
}

/// One phase's cursor over the workload's request sequence.
#[derive(Debug)]
pub struct Inputs {
    material: Arc<Material>,
    traffic: Option<TrafficGenerator>,
    next: u64,
    mutations: u64,
    order: Vec<usize>,
    lookahead: Option<Request>,
}

impl Inputs {
    /// A cursor at the start of the sequence.
    pub fn new(material: Arc<Material>) -> Self {
        let traffic = traffic_config(material.workload, material.corpus.len(), material.seed)
            .map(|config| TrafficGenerator::new(&config));
        Self {
            material,
            traffic,
            next: 0,
            mutations: 0,
            order: Vec::new(),
            lookahead: None,
        }
    }

    /// The next request of the sequence.
    pub fn next_request(&mut self) -> Request {
        if let Some(request) = self.lookahead.take() {
            return request;
        }
        let index = self.next;
        self.next += 1;
        match self.traffic.as_mut() {
            Some(traffic) => {
                let drawn = traffic.next().expect("the traffic stream is infinite");
                let slot = drawn.matrix_index;
                let mutation = drawn.value_update.then(|| {
                    let step = self.mutations;
                    self.mutations += 1;
                    if step.is_multiple_of(2) {
                        Mutation::Map { step }
                    } else {
                        Mutation::Update {
                            version: (step / 2 % 2) as usize,
                        }
                    }
                });
                Request {
                    index,
                    target: Target::Corpus(slot),
                    x: Arc::clone(&self.material.xs[slot]),
                    iterations: drawn.iterations,
                    policy: SelectionPolicy::Adaptive,
                    mutation,
                    group_start: drawn.burst_position == 0 || mutation.is_some(),
                    hot: self.material.hot[slot],
                    burst: drawn.burst_position > 0,
                }
            }
            None => self.next_cold(index),
        }
    }

    /// Cold requests are stratified: each superblock visits every template
    /// four times in a seeded order, so template sizes (which span two
    /// orders of magnitude) do not make the seed decide the mix. A quarter
    /// of requests, drawn per request, are long; every fourth request is
    /// `GatheredOnly`. Every request is a fresh row permutation of its
    /// template.
    fn next_cold(&mut self, index: u64) -> Request {
        let templates = self.material.corpus.len();
        let block = superblock(templates) as u64;
        let within = (index % block) as usize;
        if within == 0 || self.order.is_empty() {
            self.order = (0..superblock(templates)).map(|i| i % templates).collect();
            pattern_rng(self.material.seed, MEASURED_SALT ^ 0xB10C, index / block)
                .shuffle(&mut self.order);
        }
        let template = self.order[within];
        let mut rng = pattern_rng(self.material.seed, MEASURED_SALT, index);
        let long = rng.next_f64() < LONG_FRACTION;
        let gathered = index % 4 == 3;
        let matrix = permute_rows(&self.material.corpus[template], &mut rng);
        Request {
            index,
            target: Target::Fresh(Arc::new(matrix)),
            x: Arc::clone(&self.material.xs[template]),
            iterations: if long {
                LONG_ITERATIONS
            } else {
                SHORT_ITERATIONS
            },
            policy: if gathered {
                SelectionPolicy::GatheredOnly
            } else {
                SelectionPolicy::Adaptive
            },
            mutation: None,
            group_start: true,
            hot: false,
            burst: false,
        }
    }

    /// Appends whole caller groups to `buf` until at least `count` requests
    /// were added.
    pub fn fill_groups(&mut self, buf: &mut VecDeque<Vec<Request>>, count: usize) {
        let mut added = 0;
        while added < count {
            let mut group = vec![self.next_request()];
            loop {
                let request = self.next_request();
                if request.group_start {
                    self.lookahead = Some(request);
                    break;
                }
                group.push(request);
            }
            added += group.len();
            buf.push_back(group);
        }
    }

    /// Appends at least `count` requests to `buf`, in sequence order.
    pub fn fill(&mut self, buf: &mut VecDeque<Request>, count: usize) {
        let mut groups = VecDeque::new();
        self.fill_groups(&mut groups, count);
        buf.extend(groups.into_iter().flatten());
    }
}

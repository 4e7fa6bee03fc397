//! The closed loops that drive the program, all from one client thread:
//!
//! * [`EnginePhase::run_slice`] — `SeerEngine::execute_with_policy_into`,
//!   one request after another: the library path and the correctness
//!   oracle;
//! * [`EnginePhase::run_traced_slice`] — the same requests split into the
//!   public layer calls `execute_into` is made of, each one a span;
//! * [`PoolPhase::run_slice`] — a `ServingPool` with a fixed window of
//!   requests outstanding, or one `submit_batch` per caller group.
//!
//! Input generation happens between timed intervals, with nothing in
//! flight; every call into the program, the caller's own value mutations
//! included, happens inside one.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seer_core::engine::{EngineWorkspace, SeerEngine};
use seer_core::inference::Selection;
use seer_core::serving::{ServingPool, ServingRequest, Ticket};
use seer_core::EngineStats;
use seer_gpu::SimTime;
use seer_kernels::{kernel, ComputeScratch};
use seer_sparse::{CsrMatrix, Scalar};

use seerbench::{digest, result_hash, LoadClock, Trace};

use crate::inputs::{apply_mutation, Inputs, Material, Request, Target, Workload};

/// What the oracle check compares for one request, in 16 bytes so a long
/// run's checks do not grow the process: a digest of the selection (kernel,
/// device, path and modelled overheads) and of the result vector's bits,
/// and the modelled total's bits (absent on the traced path, which has no
/// modelled total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// Digest of the selection and the result hash.
    pub digest: u64,
    /// `SimTime` nanoseconds as `f64` bits.
    pub total_bits: Option<u64>,
}

impl Check {
    fn new(selection: &Selection, total: Option<SimTime>, result: &[Scalar]) -> Self {
        Self {
            digest: digest([
                selection.kernel.class_index() as u64,
                u64::from(selection.device.index() as u32),
                u64::from(selection.used_gathered),
                selection.feature_collection_cost.as_nanos().to_bits(),
                selection.inference_overhead.as_nanos().to_bits(),
                result_hash(result),
            ]),
            total_bits: total.map(|t| t.as_nanos().to_bits()),
        }
    }

    /// Whether `other` (a pool or traced response) matches this oracle
    /// check; a missing modelled total is not compared.
    pub fn matches(&self, other: &Check) -> bool {
        self.digest == other.digest
            && (other.total_bits.is_none() || self.total_bits == other.total_bits)
    }
}

fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// The phase's own copy of the corpus: shared handles when no request
/// mutates it, private deep copies (carrying their memoized fingerprints
/// and profiles, like any clone) when requests do.
fn phase_corpus(material: &Material) -> Vec<Arc<CsrMatrix>> {
    material
        .corpus
        .iter()
        .map(|m| match material.workload {
            Workload::BurstMutating => Arc::new((**m).clone()),
            _ => Arc::clone(m),
        })
        .collect()
}

/// Computed (not measured) work of one SpMV, summed over a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputedWork {
    /// Requests counted.
    pub requests: u64,
    /// Bytes an SpMV must move: CSR arrays, `x` and `y`.
    pub bytes: f64,
    /// Floating-point operations: two per stored entry.
    pub flops: f64,
    /// Nanoseconds spent in `compute_prepared_into`.
    pub compute_ns: f64,
}

/// The engine loop of one phase: its engine, input cursor and corpus.
pub struct EnginePhase<'a> {
    engine: &'a SeerEngine,
    material: Arc<Material>,
    inputs: Inputs,
    corpus: Vec<Arc<CsrMatrix>>,
    buf: VecDeque<Request>,
    workspace: EngineWorkspace,
    y: Vec<Scalar>,
    scratch: ComputeScratch,
    prefix: usize,
    /// Oracle checks, by request index.
    pub checks: Vec<Check>,
    /// Selection and modelled total of each request of the fixed prefix.
    pub prefix_records: Vec<(Selection, SimTime)>,
    /// `execute_into` call times, in microseconds (timed slices only).
    pub call_us: Vec<f64>,
    /// Where each timed slice's samples start in `call_us`.
    pub slice_starts: Vec<usize>,
    /// Requests per second of load time, one value per timed slice.
    pub slice_rates: Vec<f64>,
    /// Requests served inside timed slices.
    pub timed_requests: u64,
    /// Engine counters when the phase began (after warm-up).
    pub start_stats: EngineStats,
    /// Engine counters right after the fixed prefix was served.
    pub prefix_stats: Option<EngineStats>,
    /// Computed work of the traced loop.
    pub work: ComputedWork,
}

impl<'a> EnginePhase<'a> {
    /// A phase at the start of the sequence; `prefix` is where the
    /// deterministic counters are snapshotted.
    pub fn new(engine: &'a SeerEngine, material: Arc<Material>, prefix: usize) -> Self {
        Self {
            engine,
            inputs: Inputs::new(Arc::clone(&material)),
            corpus: phase_corpus(&material),
            material,
            buf: VecDeque::new(),
            workspace: EngineWorkspace::new(),
            y: Vec::new(),
            scratch: ComputeScratch::new(),
            prefix,
            checks: Vec::new(),
            prefix_records: Vec::new(),
            call_us: Vec::new(),
            slice_starts: Vec::new(),
            slice_rates: Vec::new(),
            timed_requests: 0,
            start_stats: engine.stats(),
            prefix_stats: None,
            work: ComputedWork::default(),
        }
    }

    fn next(&mut self) -> Request {
        if self.buf.is_empty() {
            self.inputs
                .fill(&mut self.buf, self.material.workload.chunk());
        }
        self.buf.pop_front().expect("refilled above")
    }

    /// Serves one request through `execute_with_policy_into`. Returns the
    /// time of the whole caller step (mutation included) and of the
    /// `execute_into` call alone.
    fn serve(&mut self, request: &Request) -> (Duration, Duration) {
        let start = Instant::now();
        let matrix: &CsrMatrix = match &request.target {
            Target::Corpus(slot) => {
                if let Some(mutation) = request.mutation {
                    apply_mutation(
                        &mut self.corpus[*slot],
                        mutation,
                        &self.material.bank[*slot],
                    );
                }
                &self.corpus[*slot]
            }
            Target::Fresh(matrix) => matrix,
        };
        let call = Instant::now();
        let (selection, total) = self.engine.execute_with_policy_into(
            matrix,
            &request.x,
            request.iterations,
            request.policy,
            &mut self.workspace,
        );
        let end = Instant::now();
        self.checks
            .push(Check::new(&selection, Some(total), self.workspace.result()));
        if self.prefix_records.len() < self.prefix {
            self.prefix_records.push((selection, total));
            if self.prefix_records.len() == self.prefix {
                self.prefix_stats = Some(self.engine.stats());
            }
        }
        (end - start, end - call)
    }

    /// One timed slice of about `budget`.
    pub fn run_slice(&mut self, budget: Duration) {
        let end = Instant::now() + budget;
        let mut clock = LoadClock::default();
        let mut served = 0;
        self.slice_starts.push(self.call_us.len());
        while Instant::now() < end {
            let request = self.next();
            let (step, call) = self.serve(&request);
            clock.add(step);
            self.call_us.push(micros(call));
            served += 1;
        }
        self.timed_requests += served;
        self.slice_rates.push(clock.rate(served));
    }

    /// Serves untimed until `count` oracle checks exist.
    pub fn extend_to(&mut self, count: usize) {
        while self.checks.len() < count {
            let request = self.next();
            self.serve(&request);
        }
    }

    /// One timed slice of the traced loop: each request is a span whose
    /// children are the public calls `execute_into` is made of, in its
    /// order — `sparsity_fingerprint`, then `profile_handle` and
    /// `structure_signature` on first contact, `select_with_policy`,
    /// `prepared_plan_on`, `compute_prepared_into` — preceded by the
    /// caller's value mutation, if any. Adjacent spans share their boundary
    /// timestamp, so the children tile the request.
    pub fn run_traced_slice(&mut self, budget: Duration, trace: &mut Trace) {
        let end = Instant::now() + budget;
        let mut clock = LoadClock::default();
        let mut served = 0;
        while Instant::now() < end {
            let request = self.next();
            let mut marks: Vec<(&'static str, Instant)> = Vec::with_capacity(8);
            let start = Instant::now();
            let matrix: &CsrMatrix = match &request.target {
                Target::Corpus(slot) => {
                    if let Some(mutation) = request.mutation {
                        apply_mutation(
                            &mut self.corpus[*slot],
                            mutation,
                            &self.material.bank[*slot],
                        );
                        marks.push(("sparse.value_update", Instant::now()));
                    }
                    &self.corpus[*slot]
                }
                Target::Fresh(matrix) => matrix,
            };
            // A fresh object has no memoized profile yet (a nanosecond
            // probe, left inside the fingerprint span).
            let first_contact = matrix.cached_profile().is_none();
            std::hint::black_box(matrix.sparsity_fingerprint());
            marks.push(("sparse.fingerprint", Instant::now()));
            if first_contact {
                std::hint::black_box(matrix.profile_handle());
                marks.push(("sparse.profile", Instant::now()));
                std::hint::black_box(matrix.structure_signature());
                marks.push(("sparse.signature", Instant::now()));
            }
            let selection =
                self.engine
                    .select_with_policy(matrix, request.iterations, request.policy);
            marks.push((
                if first_contact {
                    "engine.select_cold"
                } else {
                    "engine.select"
                },
                Instant::now(),
            ));
            let plan = self
                .engine
                .prepared_plan_on(matrix, selection.device, selection.kernel);
            let compute_start = Instant::now();
            marks.push((
                if first_contact {
                    "kernels.prepare"
                } else {
                    "engine.plan_pin"
                },
                compute_start,
            ));
            self.y.resize(matrix.rows(), 0.0);
            kernel(selection.kernel).compute_prepared_into(
                &plan,
                matrix,
                &request.x,
                &mut self.y,
                &mut self.scratch,
            );
            let done = Instant::now();
            marks.push(("kernels.compute", done));

            let root = trace.push("engine.request", start, done, None, request.index);
            let mut from = start;
            for (name, to) in marks {
                trace.push(name, from, to, Some(root), request.index);
                from = to;
            }
            let (rows, cols, nnz) = (
                matrix.rows() as f64,
                matrix.cols() as f64,
                matrix.nnz() as f64,
            );
            self.work.requests += 1;
            self.work.bytes += 16.0 * nnz + 8.0 * (rows + 1.0) + 8.0 * cols + 8.0 * rows;
            self.work.flops += 2.0 * nnz;
            self.work.compute_ns += (done - compute_start).as_nanos() as f64;
            self.checks.push(Check::new(&selection, None, &self.y));
            clock.add(done - start);
            served += 1;
        }
        self.timed_requests += served;
        self.slice_rates.push(clock.rate(served));
    }
}

/// How the pool phase keeps requests outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// A fixed number of single requests in flight.
    Fixed(usize),
    /// One `submit_batch` per caller group, awaited before the next.
    Group,
}

struct InFlight {
    ticket: Ticket,
    index: u64,
    submitted: Instant,
    submit_done: Instant,
}

/// The pool loop of one phase.
pub struct PoolPhase<'a> {
    pool: &'a ServingPool,
    material: Arc<Material>,
    inputs: Inputs,
    corpus: Vec<Arc<CsrMatrix>>,
    buf: VecDeque<Vec<Request>>,
    window: Window,
    /// Response checks by request index; `None` for a typed error.
    pub checks: Vec<Option<Check>>,
    /// Submit-to-resolution times, in microseconds.
    pub latency_us: Vec<f64>,
    /// Where each slice's samples start in `latency_us`.
    pub slice_starts: Vec<usize>,
    /// Time inside `submit` / `submit_batch`, in microseconds.
    pub submit_us: Vec<f64>,
    /// Requests resolved per second of load time, one value per slice.
    pub slice_rates: Vec<f64>,
    /// Sizes of the groups sent.
    pub group_sizes: Vec<usize>,
}

impl<'a> PoolPhase<'a> {
    /// A phase at the start of the sequence.
    pub fn new(pool: &'a ServingPool, material: Arc<Material>, window: Window) -> Self {
        Self {
            pool,
            inputs: Inputs::new(Arc::clone(&material)),
            corpus: phase_corpus(&material),
            material,
            buf: VecDeque::new(),
            window,
            checks: Vec::new(),
            latency_us: Vec::new(),
            slice_starts: Vec::new(),
            submit_us: Vec::new(),
            slice_rates: Vec::new(),
            group_sizes: Vec::new(),
        }
    }

    /// The request as the caller sends it, after its value mutation.
    fn serving_request(&mut self, request: &Request) -> ServingRequest {
        let matrix = match &request.target {
            Target::Corpus(slot) => {
                if let Some(mutation) = request.mutation {
                    apply_mutation(
                        &mut self.corpus[*slot],
                        mutation,
                        &self.material.bank[*slot],
                    );
                }
                Arc::clone(&self.corpus[*slot])
            }
            Target::Fresh(matrix) => Arc::clone(matrix),
        };
        ServingRequest::execute(matrix, Arc::clone(&request.x), request.iterations)
            .with_policy(request.policy)
    }

    fn resolve(&mut self, flight: InFlight, trace: &mut Option<&mut Trace>) {
        let wait = Instant::now();
        let outcome = flight.ticket.wait();
        let done = Instant::now();
        self.latency_us.push(micros(done - flight.submitted));
        debug_assert_eq!(self.checks.len() as u64, flight.index);
        self.checks.push(outcome.ok().map(|response| {
            let result = response.result.as_deref().unwrap_or_default();
            Check::new(&response.selection, response.total_time, result)
        }));
        if let Some(trace) = trace {
            let root = trace.push("pool.request", flight.submitted, done, None, flight.index);
            trace.push(
                "pool.submit",
                flight.submitted,
                flight.submit_done,
                Some(root),
                flight.index,
            );
            trace.push("pool.wait", wait, done, Some(root), flight.index);
        }
    }

    /// Stops the clock, generates the next chunk of groups, restarts it.
    fn refill(&mut self, clock: &mut LoadClock) {
        clock.stop(Instant::now());
        self.inputs
            .fill_groups(&mut self.buf, self.material.workload.chunk());
        clock.start(Instant::now());
    }

    /// One timed slice of about `budget`; spans go to `trace` if given.
    pub fn run_slice(&mut self, budget: Duration, mut trace: Option<&mut Trace>) {
        let end = Instant::now() + budget;
        let mut clock = LoadClock::default();
        let mut served = 0;
        self.slice_starts.push(self.latency_us.len());
        clock.start(Instant::now());
        match self.window {
            Window::Fixed(window) => {
                let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
                loop {
                    while inflight.len() < window && Instant::now() < end {
                        if self.buf.is_empty() {
                            // Drain first, so the generation gap is idle.
                            while let Some(flight) = inflight.pop_front() {
                                self.resolve(flight, &mut trace);
                                served += 1;
                            }
                            self.refill(&mut clock);
                        }
                        let group = self.buf.pop_front().expect("refilled above");
                        self.group_sizes.push(group.len());
                        for request in &group {
                            let sent = self.serving_request(request);
                            let submitted = Instant::now();
                            let ticket = self.pool.submit(sent);
                            let submit_done = Instant::now();
                            self.submit_us.push(micros(submit_done - submitted));
                            inflight.push_back(InFlight {
                                ticket,
                                index: request.index,
                                submitted,
                                submit_done,
                            });
                        }
                    }
                    let Some(flight) = inflight.pop_front() else {
                        break;
                    };
                    self.resolve(flight, &mut trace);
                    served += 1;
                }
            }
            Window::Group => {
                while Instant::now() < end {
                    if self.buf.is_empty() {
                        self.refill(&mut clock);
                    }
                    let group = self.buf.pop_front().expect("refilled above");
                    self.group_sizes.push(group.len());
                    let sent: Vec<ServingRequest> =
                        group.iter().map(|r| self.serving_request(r)).collect();
                    let submitted = Instant::now();
                    let tickets = self.pool.submit_batch(sent);
                    let submit_done = Instant::now();
                    self.submit_us.push(micros(submit_done - submitted));
                    for (ticket, request) in tickets.into_iter().zip(&group) {
                        let flight = InFlight {
                            ticket,
                            index: request.index,
                            submitted,
                            submit_done,
                        };
                        self.resolve(flight, &mut trace);
                        served += 1;
                    }
                }
            }
        }
        clock.stop(Instant::now());
        self.slice_rates.push(clock.rate(served));
    }
}

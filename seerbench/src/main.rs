//! One command per workload: drives the Seer engine and serving pool with a
//! seeded request sequence, checks every response against a sequential
//! engine oracle, and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) as the last line of standard
//! output.
//!
//! ```text
//! cargo run --release --manifest-path seerbench/Cargo.toml -- \
//!     --workload warm_skewed --seed 7 --seconds 30 --trace 0
//! ```
//!
//! A run sets up (training set, training, engine and pool construction,
//! warm-up) nine times and reports the median, then alternates slices of
//! its phases over `--seconds`: the engine phase (one in-process
//! `execute_into` loop, which is also the oracle), the pool phase (a closed
//! loop with a fixed number of requests outstanding) and, when traced, the
//! span-recording engine loop. Rates and latency percentiles are taken per
//! slice of about half a second and reported as the run's steady figure
//! over slices (`seerbench::steady`), so host interference that slows part
//! of the run does not move them; timing-independent metrics are computed
//! over a fixed request prefix and
//! repeat exactly for a seed. Any mismatch against the oracle, typed error,
//! shed or expiry is a failed request and makes the command exit non-zero.

mod inputs;
mod phases;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seer_core::engine::{EngineWorkspace, SeerEngine};
use seer_core::inference::{Selection, SelectionPolicy};
use seer_core::serving::{
    AdmissionConfig, PoolConfig, PoolStats, Priority, RoutingConfig, ServingPool, ServingRequest,
};
use seer_core::training::TrainingConfig;
use seer_core::EngineStats;
use seer_gpu::{Fleet, Gpu, SimTime};
use seer_kernels::{kernel, KernelId, KernelProfile};
use seer_sparse::collection::{generate, CollectionConfig, SizeScale};
use seer_sparse::CsrMatrix;

use seerbench::{
    histogram_delta, histogram_quantile, median, result_json, steady, Better, Metric, Percentiles,
    Trace,
};

use inputs::{
    cold_warmup, dense_input, Inputs, Material, Target, Workload, LONG_ITERATIONS, SHORT_ITERATIONS,
};
use phases::{Check, EnginePhase, PoolPhase, Window};

/// Set-ups per run; `setup_s` is their median. A set-up takes about a
/// tenth of a second, so several are cheap and their median shrugs off a
/// host stall.
const SETUP_REPEATS: usize = 9;
/// Target length of one slice; rates and latency percentiles are taken per
/// slice. Short enough that a run has dozens of slices per phase, long
/// enough that even the cold pool's p99 rests on a dozen samples.
const SLICE_SECONDS: f64 = 0.5;
/// Fewest rounds of alternating slices, for very short runs.
const MIN_ROUNDS: usize = 4;
/// Seed of the training collection (fixed: the seed varies traffic only).
const TRAINING_SEED: u64 = 2024;
/// Seed of the held-out collection cold patterns derive from.
const HELD_OUT_SEED: u64 = 0xC01D;
/// Fresh warm-up requests per cold consumer.
const COLD_WARMUP: usize = 8;
/// Devices of the cold workload's fleet (the first reference presets).
const COLD_FLEET_DEVICES: usize = 2;

const USAGE: &str =
    "usage: seerbench --workload <warm_skewed|cold_unseen|burst_mutating> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(parsed > 0.0 && parsed.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// How much load a workload offers, derived from the core count: never
/// more shards than cores, and all load from one client thread.
#[derive(Debug, Clone, Copy)]
struct LoadPlan {
    nproc: usize,
    devices: usize,
    shards_per_device: usize,
    window: Window,
}

impl LoadPlan {
    fn new(workload: Workload, nproc: usize) -> Self {
        match workload {
            Workload::WarmSkewed => Self {
                nproc,
                devices: 1,
                shards_per_device: nproc,
                window: Window::Fixed(nproc),
            },
            Workload::ColdUnseen => Self {
                nproc,
                devices: COLD_FLEET_DEVICES,
                shards_per_device: 1,
                window: Window::Fixed(1),
            },
            Workload::BurstMutating => Self {
                nproc,
                devices: 1,
                shards_per_device: nproc,
                window: Window::Group,
            },
        }
    }

    fn workers(&self) -> usize {
        self.devices * self.shards_per_device
    }
}

fn small_collection(seed: u64) -> CollectionConfig {
    CollectionConfig {
        seed,
        matrices_per_family: 4,
        scale: SizeScale::Small,
    }
}

fn cold_fleet() -> Fleet {
    Fleet::of_specs(
        Fleet::reference_presets()
            .into_iter()
            .take(COLD_FLEET_DEVICES),
    )
    .expect("the reference presets validate")
}

/// What one set-up builds.
struct Built {
    engine: SeerEngine,
    traced: Option<SeerEngine>,
    pool: ServingPool,
    corpus: Vec<Arc<CsrMatrix>>,
}

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    train: f64,
    construct: f64,
    warmup: f64,
}

/// Builds the training set, trains, constructs the engine(s) and the pool,
/// and runs the workload's warm-up, timing each step.
fn setup(
    workload: Workload,
    plan: &LoadPlan,
    templates: &[Arc<CsrMatrix>],
    traced: bool,
) -> (Built, SetupTimes) {
    let start = Instant::now();
    let collection = generate(&small_collection(TRAINING_SEED));
    let (trained, _) = SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())
        .expect("training succeeds on the Small collection");
    let trained_at = Instant::now();

    let models = trained.models_handle();
    let gpu = trained.gpu_handle();
    let new_engine = || match workload {
        Workload::ColdUnseen => SeerEngine::with_fleet(cold_fleet(), Arc::clone(&models)),
        _ => SeerEngine::new(Arc::clone(&gpu), Arc::clone(&models)),
    };
    let engine = new_engine();
    let traced = traced.then(new_engine);
    let pool = match workload {
        Workload::WarmSkewed => ServingPool::new(
            Arc::clone(&gpu),
            Arc::clone(&models),
            PoolConfig::with_shards(plan.shards_per_device),
        ),
        Workload::ColdUnseen => ServingPool::with_fleet(
            cold_fleet(),
            Arc::clone(&models),
            PoolConfig::with_shards(plan.shards_per_device),
        ),
        Workload::BurstMutating => ServingPool::new(
            Arc::clone(&gpu),
            Arc::clone(&models),
            PoolConfig::with_shards(plan.shards_per_device)
                .with_routing(Some(RoutingConfig::default()))
                .with_admission(Some(AdmissionConfig::default())),
        ),
    };
    let constructed_at = Instant::now();

    let corpus: Vec<Arc<CsrMatrix>> = collection
        .into_iter()
        .map(|entry| Arc::new(entry.matrix))
        .collect();
    let mut engines = vec![&engine];
    engines.extend(traced.as_ref());
    warm_up(workload, &engines, &pool, &corpus, templates);
    let warmed_at = Instant::now();

    let times = SetupTimes {
        train: (trained_at - start).as_secs_f64(),
        construct: (constructed_at - trained_at).as_secs_f64(),
        warmup: (warmed_at - constructed_at).as_secs_f64(),
    };
    let built = Built {
        engine,
        traced,
        pool,
        corpus,
    };
    (built, times)
}

/// Warm workloads serve every corpus matrix at both iteration counts on
/// every engine and the pool, so the timed plan-hit rate is 1.0. The cold
/// workload serves a few fresh patterns of its own under both policies,
/// which exercises the code paths without warming anything it will meet.
fn warm_up(
    workload: Workload,
    engines: &[&SeerEngine],
    pool: &ServingPool,
    corpus: &[Arc<CsrMatrix>],
    templates: &[Arc<CsrMatrix>],
) {
    let mut workspace = EngineWorkspace::new();
    if workload == Workload::ColdUnseen {
        for engine in engines {
            for (matrix, x, policy) in cold_warmup(templates, COLD_WARMUP) {
                engine.execute_with_policy_into(
                    &matrix,
                    &x,
                    SHORT_ITERATIONS,
                    policy,
                    &mut workspace,
                );
            }
        }
        for (matrix, x, policy) in cold_warmup(templates, COLD_WARMUP) {
            let request = ServingRequest::execute(Arc::new(matrix), Arc::new(x), SHORT_ITERATIONS)
                .with_policy(policy);
            pool.submit(request)
                .wait()
                .expect("a warm-up request is served");
        }
        return;
    }
    let xs: Vec<Arc<Vec<f64>>> = corpus
        .iter()
        .map(|m| Arc::new(dense_input(m.cols())))
        .collect();
    for engine in engines {
        for (matrix, x) in corpus.iter().zip(&xs) {
            for iterations in [SHORT_ITERATIONS, LONG_ITERATIONS] {
                engine.execute_into(matrix, x, iterations, &mut workspace);
            }
        }
    }
    let requests = corpus.iter().zip(&xs).flat_map(|(matrix, x)| {
        [SHORT_ITERATIONS, LONG_ITERATIONS].map(|iterations| {
            ServingRequest::execute(Arc::clone(matrix), Arc::clone(x), iterations)
        })
    });
    for ticket in pool.submit_batch(requests) {
        ticket.wait().expect("a warm-up request is served");
    }
}

/// Modelled (`SimTime`) accounting over the fixed request prefix, plus the
/// prefix's workload-property counts. Every field is a pure function of
/// the seed.
#[derive(Debug, Default)]
struct Modelled {
    requests: usize,
    seer_ns: f64,
    oracle_ns: f64,
    fixed_ns: [f64; KernelId::ALL.len()],
    selection_ns: f64,
    preprocessing_ns: f64,
    iterations_ns: f64,
    misses: usize,
    tree_ns: f64,
    collection_ns: f64,
    kernels: [usize; KernelId::ALL.len()],
    devices: [usize; COLD_FLEET_DEVICES],
    fresh: usize,
    hot: usize,
    burst: usize,
    mutated: usize,
    gathered: usize,
}

impl Modelled {
    fn share(&self, count: usize) -> f64 {
        count as f64 / self.requests.max(1) as f64
    }

    fn per_request_us(&self, ns: f64) -> f64 {
        ns / self.requests.max(1) as f64 / 1e3
    }

    fn per_miss_us(&self, ns: f64) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            ns / self.misses as f64 / 1e3
        }
    }
}

/// Replays the first `records.len()` requests of the sequence (fresh
/// objects, untimed) and prices them with the kernels' cost models on every
/// fleet device: Seer's modelled total comes from the oracle record (the
/// `total_time` the engine returned, equal bit for bit to the pool's), the
/// oracle is the cheapest `(kernel, device)` per request, and each fixed
/// kernel runs on its cheapest device.
fn account(
    material: &Arc<Material>,
    engine: &SeerEngine,
    records: &[(Selection, SimTime)],
) -> Modelled {
    let mut inputs = Inputs::new(Arc::clone(material));
    let gpus: Vec<Arc<Gpu>> = engine
        .fleet()
        .ids()
        .map(|device| engine.device_gpu(device))
        .collect();
    let mut costs: HashMap<u64, Vec<(SimTime, SimTime)>> = HashMap::new();
    // Warm workloads served every corpus key during warm-up.
    let mut seen: HashSet<(u64, usize, SelectionPolicy)> = HashSet::new();
    if material.workload != Workload::ColdUnseen {
        for matrix in &material.corpus {
            for iterations in [SHORT_ITERATIONS, LONG_ITERATIONS] {
                seen.insert((
                    matrix.sparsity_fingerprint(),
                    iterations,
                    SelectionPolicy::Adaptive,
                ));
            }
        }
    }
    let kernels = KernelId::ALL.len();
    let mut out = Modelled::default();
    for record in records {
        let request = inputs.next_request();
        let matrix: &CsrMatrix = match &request.target {
            Target::Corpus(slot) => &material.corpus[*slot],
            Target::Fresh(matrix) => matrix,
        };
        let fingerprint = matrix.sparsity_fingerprint();
        let table = costs.entry(fingerprint).or_insert_with(|| {
            let profile = matrix.profile_handle();
            gpus.iter()
                .flat_map(|gpu| {
                    KernelId::ALL.map(|id| {
                        let model = kernel(id);
                        (
                            model.preprocessing_time(gpu, matrix, &profile),
                            model.iteration_timing(gpu, matrix, &profile).total,
                        )
                    })
                })
                .collect()
        });
        let iterations = request.iterations;
        let total = |device: usize, k: usize| {
            let (pre, per) = table[device * kernels + k];
            KernelProfile::new(KernelId::ALL[k], pre, per, iterations)
                .total()
                .as_nanos()
        };
        let (selection, seer) = (record.0, record.1.as_nanos());
        let (device, k) = (selection.device.index(), selection.kernel.class_index());
        let (pre, per) = table[device * kernels + k];
        out.requests += 1;
        out.seer_ns += seer;
        out.selection_ns += (seer - total(device, k)).max(0.0);
        out.preprocessing_ns += pre.as_nanos();
        out.iterations_ns += (per * iterations as f64).as_nanos();
        let mut oracle = f64::INFINITY;
        for (kernel_index, fixed) in out.fixed_ns.iter_mut().enumerate() {
            let best = (0..gpus.len())
                .map(|d| total(d, kernel_index))
                .fold(f64::INFINITY, f64::min);
            *fixed += best;
            oracle = oracle.min(best);
        }
        out.oracle_ns += oracle;
        if seen.insert((fingerprint, iterations, request.policy)) {
            out.misses += 1;
            out.tree_ns += selection.inference_overhead.as_nanos();
            out.collection_ns += selection.feature_collection_cost.as_nanos();
        }
        out.kernels[k] += 1;
        out.devices[device] += 1;
        out.fresh += usize::from(request.fresh());
        out.hot += usize::from(request.hot);
        out.burst += usize::from(request.burst);
        out.mutated += usize::from(request.mutation.is_some());
        out.gathered += usize::from(request.policy == SelectionPolicy::GatheredOnly);
    }
    out
}

/// Requests whose response disagrees with the oracle at the same index
/// (a typed error counts too). Reports the first disagreement.
fn mismatches<'r>(
    label: &str,
    oracle: &[Check],
    responses: impl Iterator<Item = Option<&'r Check>>,
) -> u64 {
    let mut failed = 0;
    for (index, response) in responses.enumerate() {
        let ok = response.is_some_and(|r| oracle[index].matches(r));
        if !ok {
            if failed == 0 {
                eprintln!(
                    "{label}: request {index} disagrees with the engine oracle: \
                     expected {:?}, got {response:?}",
                    oracle[index]
                );
            }
            failed += 1;
        }
    }
    failed
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn rates_line(rates: &[f64]) -> String {
    rates
        .iter()
        .map(|rate| format!("{rate:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Kernel label as a metric-name component: `CSR,MP` becomes `csr_mp`.
fn kernel_key(id: KernelId) -> String {
    id.label().to_ascii_lowercase().replace(',', "_")
}

/// The pool's own counters over the timed phase (warm-up excluded).
struct PoolDelta {
    queue_wait: Vec<u64>,
    end_to_end: Vec<u64>,
    shard_completed: Vec<u64>,
    served: u64,
    failed: u64,
    shed: u64,
    expired: u64,
    batched: u64,
    activations: u64,
    router_selections: u64,
}

impl PoolDelta {
    fn between(before: &PoolStats, after: &PoolStats) -> Self {
        let class = Priority::Interactive;
        Self {
            queue_wait: histogram_delta(
                before.latency.queue_wait(class).bucket_counts(),
                after.latency.queue_wait(class).bucket_counts(),
            ),
            end_to_end: histogram_delta(
                before.latency.end_to_end(class).bucket_counts(),
                after.latency.end_to_end(class).bucket_counts(),
            ),
            shard_completed: after
                .shards
                .iter()
                .zip(&before.shards)
                .map(|(a, b)| a.completed - b.completed)
                .collect(),
            served: after.served() - before.served(),
            failed: after.failed() - before.failed(),
            shed: after.shed() - before.shed(),
            expired: after.expired() - before.expired(),
            batched: after.routing.batched_requests - before.routing.batched_requests,
            activations: after.routing.batch_activations - before.routing.batch_activations,
            router_selections: after.router.map_or(0, |r| r.selections())
                - before.router.map_or(0, |r| r.selections()),
        }
    }
}

/// What a run measured, ready to print.
struct Report {
    lines: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Report {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = LoadPlan::new(workload, nproc);
    let templates: Vec<Arc<CsrMatrix>> = if workload == Workload::ColdUnseen {
        generate(&small_collection(HELD_OUT_SEED))
            .into_iter()
            .map(|entry| Arc::new(entry.matrix))
            .collect()
    } else {
        Vec::new()
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down first, outside the timed steps.
        drop(built.take());
        let (fresh, times) = setup(workload, &plan, &templates, args.trace);
        setups.push(times);
        built = Some(fresh);
    }
    let built = built.expect("at least one set-up");

    let base = if workload == Workload::ColdUnseen {
        &templates
    } else {
        &built.corpus
    };
    let material = Arc::new(Material::new(workload, args.seed, base));
    let prefix = workload.prefix(material.corpus.len());
    let mut engine = EnginePhase::new(&built.engine, Arc::clone(&material), prefix);
    let mut traced = built
        .traced
        .as_ref()
        .map(|e| EnginePhase::new(e, Arc::clone(&material), 0));
    let mut pool = PoolPhase::new(&built.pool, Arc::clone(&material), plan.window);
    let mut trace = Trace::new(Instant::now());

    // Each round runs one slice of every phase, rotating the order, so a
    // host slowdown lands on all phases alike.
    #[derive(Clone, Copy)]
    enum Part {
        Engine,
        Pool,
        Traced,
    }
    let mut parts = vec![Part::Engine, Part::Pool];
    if traced.is_some() {
        parts.push(Part::Traced);
    }
    let rounds = ((args.seconds / (parts.len() as f64 * SLICE_SECONDS)).round() as usize)
        .max(MIN_ROUNDS);
    let budget = Duration::from_secs_f64(args.seconds / (parts.len() * rounds) as f64);
    let pool_before = built.pool.stats();
    for round in 0..rounds {
        for i in 0..parts.len() {
            match parts[(round + i) % parts.len()] {
                Part::Engine => engine.run_slice(budget),
                Part::Pool => pool.run_slice(budget, traced.is_some().then_some(&mut trace)),
                Part::Traced => traced
                    .as_mut()
                    .expect("a traced part only when traced")
                    .run_traced_slice(budget, &mut trace),
            }
        }
    }
    let pool_after = built.pool.stats();

    // Oracle: extend the engine (untimed) over every index another loop
    // served and over the deterministic prefix, then compare.
    let traced_len = traced.as_ref().map_or(0, |t| t.checks.len());
    engine.extend_to(prefix.max(pool.checks.len()).max(traced_len));
    let pool_failed = mismatches(
        "pool",
        &engine.checks,
        pool.checks.iter().map(Option::as_ref),
    );
    let traced_failed = traced.as_ref().map_or(0, |t| {
        mismatches("traced loop", &engine.checks, t.checks.iter().map(Some))
    });
    let modelled = account(&material, &built.engine, &engine.prefix_records);
    let delta = PoolDelta::between(&pool_before, &pool_after);

    let attempted = engine.timed_requests
        + pool.checks.len() as u64
        + traced.as_ref().map_or(0, |t| t.timed_requests);
    let failed = pool_failed + traced_failed;
    let correct = failed == 0 && delta.failed + delta.shed + delta.expired == 0;

    // Rates and latency percentiles are taken per slice and reported as the
    // steady figure over slices: host interference slows the slices it
    // lands in instead of the whole run. Pooled percentiles and the median
    // over slices are printed alongside.
    let pool_latency = Percentiles::of(&mut pool.latency_us.clone());
    let pool_slices = Percentiles::per_slice(&pool.latency_us, &pool.slice_starts);
    let engine_slices = Percentiles::per_slice(&engine.call_us, &engine.slice_starts);
    let over_slices = |slices: &[Percentiles], value: fn(&Percentiles) -> f64| {
        steady(&slices.iter().map(value).collect::<Vec<_>>(), Better::Lower)
    };
    let latency_p50 = over_slices(&pool_slices, |p| p.p50);
    let latency_p99 = over_slices(&pool_slices, |p| p.p99);
    let engine_p50 = over_slices(&engine_slices, |p| p.p50);
    let pool_rps = steady(&pool.slice_rates, Better::Higher);
    let engine_rps = steady(&engine.slice_rates, Better::Higher);
    let fewest = |slices: &[Percentiles]| slices.iter().map(|p| p.count).min().unwrap_or(0);
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let mean_group =
        pool.group_sizes.iter().sum::<usize>() as f64 / pool.group_sizes.len().max(1) as f64;
    let window = match plan.window {
        Window::Fixed(w) => w as f64,
        Window::Group => mean_group,
    };

    let mut lines = vec![
        format!(
            "# seerbench workload={} seed={} seconds={} trace={}",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "# load: closed loop, one client thread; nproc={} devices={} shards_per_device={} \
             workers={} window={}{}",
            plan.nproc,
            plan.devices,
            plan.shards_per_device,
            plan.workers(),
            window,
            if plan.window == Window::Group {
                " (mean submit_batch group)"
            } else {
                ""
            }
        ),
        format!(
            "# pool latency, steady over {} slices: p50={latency_p50:.1}us p99={latency_p99:.1}us \
             (n={} samples, >= {} per slice, >= {} beyond each slice's p99; pooled over the run \
             {:.1}us / {:.1}us)",
            pool_slices.len(),
            pool_latency.count,
            fewest(&pool_slices),
            pool_slices
                .iter()
                .map(Percentiles::beyond_p99)
                .min()
                .unwrap_or(0),
            pool_latency.p50,
            pool_latency.p99
        ),
        format!(
            "# engine execute_into, steady over {} slices: p50={engine_p50:.1}us (n={} samples, \
             >= {} per slice; median over slices {:.1}us)",
            engine_slices.len(),
            engine.call_us.len(),
            fewest(&engine_slices),
            median(&engine_slices.iter().map(|p| p.p50).collect::<Vec<_>>())
        ),
        format!(
            "# slice rates (1/s), steady engine {engine_rps:.0} pool {pool_rps:.0}: engine {} | \
             pool {}",
            rates_line(&engine.slice_rates),
            rates_line(&pool.slice_rates)
        ),
        format!(
            "# slice p50s (us): engine {} | pool {} | pool p99s {}",
            rates_line(&engine_slices.iter().map(|p| p.p50).collect::<Vec<_>>()),
            rates_line(&pool_slices.iter().map(|p| p.p50).collect::<Vec<_>>()),
            rates_line(&pool_slices.iter().map(|p| p.p99).collect::<Vec<_>>())
        ),
        format!(
            "# shares over the {}-request prefix: fresh={:.4} hot={:.4} burst={:.4} \
             batched={:.4} mutated={:.4} gathered={:.4}",
            modelled.requests,
            modelled.share(modelled.fresh),
            modelled.share(modelled.hot),
            modelled.share(modelled.burst),
            delta.batched as f64 / delta.served.max(1) as f64,
            modelled.share(modelled.mutated),
            modelled.share(modelled.gathered)
        ),
        format!(
            "# requests: engine {} pool {} traced {}; failed {} (pool {}, traced {}, pool-side \
             failed/shed/expired {}/{}/{})",
            engine.timed_requests,
            pool.checks.len(),
            traced.as_ref().map_or(0, |t| t.timed_requests),
            failed,
            pool_failed,
            traced_failed,
            delta.failed,
            delta.shed,
            delta.expired
        ),
    ];

    let metrics = if let Some(traced) = &traced {
        let coverage = trace.coverage("engine.request");
        let overhead = 1.0 - steady(&traced.slice_rates, Better::Higher) / engine_rps;
        lines.push(format!(
            "# trace: {} spans, engine-phase coverage {coverage:.4}, overhead {overhead:.4}; \
             pool histograms behind the queue-wait and in-pool percentiles: n={} / n={}",
            trace.spans().len(),
            delta.queue_wait.iter().sum::<u64>(),
            delta.end_to_end.iter().sum::<u64>()
        ));
        write_trace(workload, &trace, &mut lines);
        per_layer_metrics(PerLayer {
            engine: &engine,
            traced,
            pool: &pool,
            trace: &trace,
            delta: &delta,
            modelled: &modelled,
            plan: &plan,
            window,
            setup: [
                setup_median(|s| s.train),
                setup_median(|s| s.construct),
                setup_median(|s| s.warmup),
            ],
            coverage,
            overhead,
        })
    } else {
        vec![
            Metric::new("throughput_rps", pool_rps, "1/s"),
            Metric::new("latency_p50_us", latency_p50, "us"),
            Metric::new("latency_p99_us", latency_p99, "us"),
            Metric::new("engine_rps", engine_rps, "1/s"),
            Metric::new("engine_p50_us", engine_p50, "us"),
            Metric::new(
                "modelled_us_per_request",
                modelled.per_request_us(modelled.seer_ns),
                "us",
            ),
            Metric::new(
                "modelled_vs_oracle",
                modelled.seer_ns / modelled.oracle_ns,
                "ratio",
            ),
            Metric::new(
                "speedup_vs_best_fixed",
                modelled
                    .fixed_ns
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
                    / modelled.seer_ns,
                "ratio",
            ),
            Metric::new(
                "setup_s",
                setup_median(|s| s.train + s.construct + s.warmup),
                "s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
        ]
    };
    Report {
        lines,
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// Writes the spans to `.bench_trace/<workload>.tsv` under the working
/// directory; a write failure is reported, not fatal.
fn write_trace(workload: Workload, trace: &Trace, lines: &mut Vec<String>) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}.tsv", workload.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => lines.push(format!("# spans written to {}", path.display())),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

/// Inputs of the per-layer metric set.
struct PerLayer<'a> {
    engine: &'a EnginePhase<'a>,
    traced: &'a EnginePhase<'a>,
    pool: &'a PoolPhase<'a>,
    trace: &'a Trace,
    delta: &'a PoolDelta,
    modelled: &'a Modelled,
    plan: &'a LoadPlan,
    window: f64,
    setup: [f64; 3],
    coverage: f64,
    overhead: f64,
}

fn per_layer_metrics(layer: PerLayer<'_>) -> Vec<Metric> {
    let spans = |name: &str| Percentiles::of(&mut layer.trace.durations_us(name));
    let client = Percentiles::of(&mut layer.pool.latency_us.clone());
    let submit = Percentiles::of(&mut layer.pool.submit_us.clone());
    let queue_p50 = histogram_quantile(&layer.delta.queue_wait, 0.50);
    let queue_p99 = histogram_quantile(&layer.delta.queue_wait, 0.99);
    let e2e_p50 = histogram_quantile(&layer.delta.end_to_end, 0.50);
    let loads = &layer.delta.shard_completed;
    let mean_load = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let max_load = loads.iter().copied().max().unwrap_or(0) as f64;
    let counts: EngineStats = layer
        .engine
        .prefix_stats
        .expect("the engine served the prefix")
        .saturating_sub(layer.engine.start_stats);
    let resident = layer
        .engine
        .prefix_stats
        .map_or(0, |s| s.resident_plan_bytes);
    let compute = spans("kernels.compute");
    let work = layer.traced.work;
    let per_traced = |total: f64| total / work.requests.max(1) as f64;
    let m = layer.modelled;

    let mut metrics = vec![
        Metric::new("serving.submit_p50_us", submit.p50, "us"),
        Metric::new("serving.submit_p99_us", submit.p99, "us"),
        Metric::new("serving.queue_wait_p50_us", queue_p50 / 1e3, "us"),
        Metric::new("serving.queue_wait_p99_us", queue_p99 / 1e3, "us"),
        Metric::new("serving.pool_e2e_p50_us", e2e_p50 / 1e3, "us"),
        Metric::new(
            "serving.resolve_gap_p50_us",
            client.p50 - e2e_p50 / 1e3,
            "us",
        ),
        Metric::new(
            "serving.shard_load_max_over_mean",
            if mean_load > 0.0 {
                max_load / mean_load
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "serving.batched_share",
            layer.delta.batched as f64 / layer.delta.served.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "serving.mean_batch_size",
            if layer.delta.activations == 0 {
                0.0
            } else {
                layer.delta.batched as f64 / layer.delta.activations as f64
            },
            "count",
        ),
        Metric::new(
            "serving.router_selections",
            layer.delta.router_selections as f64,
            "count",
        ),
        Metric::new("serving.failed", layer.delta.failed as f64, "count"),
        Metric::new("serving.shed", layer.delta.shed as f64, "count"),
        Metric::new("serving.expired", layer.delta.expired as f64, "count"),
        Metric::new("serving.latency_samples", client.count as f64, "count"),
        Metric::new("engine.select_p50_us", spans("engine.select").p50, "us"),
        Metric::new(
            "engine.select_cold_p50_us",
            spans("engine.select_cold").p50,
            "us",
        ),
        Metric::new("engine.plan_pin_p50_us", spans("engine.plan_pin").p50, "us"),
        Metric::new("engine.plan_hit_rate", counts.plan_hit_rate(), "ratio"),
        Metric::new("engine.plan_misses", counts.plan_misses as f64, "count"),
        Metric::new(
            "engine.plan_preparations",
            counts.plan_preparations as f64,
            "count",
        ),
        Metric::new(
            "engine.profile_passes",
            counts.profile_passes as f64,
            "count",
        ),
        Metric::new(
            "engine.feature_collections",
            counts.feature_collections as f64,
            "count",
        ),
        Metric::new("engine.resident_plan_bytes", resident as f64, "bytes"),
        Metric::new(
            "engine.latency_samples",
            layer.engine.call_us.len() as f64,
            "count",
        ),
        Metric::new("inference.modelled_tree_us", m.per_miss_us(m.tree_ns), "us"),
        Metric::new(
            "inference.modelled_collection_us",
            m.per_miss_us(m.collection_ns),
            "us",
        ),
        Metric::new("kernels.prepare_p50_us", spans("kernels.prepare").p50, "us"),
        Metric::new("kernels.compute_p50_us", compute.p50, "us"),
        Metric::new("kernels.compute_p99_us", compute.p99, "us"),
        Metric::new("kernels.compute_samples", compute.count as f64, "count"),
        Metric::new(
            "kernels.computed_bytes_per_request",
            per_traced(work.bytes),
            "bytes",
        ),
        Metric::new("kernels.flops_per_request", per_traced(work.flops), "flop"),
        Metric::new(
            "kernels.computed_gbps",
            if work.compute_ns > 0.0 {
                work.bytes / work.compute_ns
            } else {
                0.0
            },
            "GB/s",
        ),
    ];
    for (id, count) in KernelId::ALL.iter().zip(m.kernels) {
        metrics.push(Metric::new(
            format!("kernels.share.{}", kernel_key(*id)),
            m.share(count),
            "ratio",
        ));
    }
    metrics.extend([
        Metric::new(
            "sparse.fingerprint_p50_us",
            spans("sparse.fingerprint").p50,
            "us",
        ),
        Metric::new("sparse.profile_p50_us", spans("sparse.profile").p50, "us"),
        Metric::new(
            "sparse.signature_p50_us",
            spans("sparse.signature").p50,
            "us",
        ),
        Metric::new(
            "sparse.value_update_p50_us",
            spans("sparse.value_update").p50,
            "us",
        ),
        Metric::new(
            "gpu.modelled_selection_us",
            m.per_request_us(m.selection_ns),
            "us",
        ),
        Metric::new(
            "gpu.modelled_preprocessing_us",
            m.per_request_us(m.preprocessing_ns),
            "us",
        ),
        Metric::new(
            "gpu.modelled_iterations_us",
            m.per_request_us(m.iterations_ns),
            "us",
        ),
    ]);
    for (device, count) in m.devices.iter().enumerate() {
        metrics.push(Metric::new(
            format!("gpu.device_share.dev{device}"),
            m.share(*count),
            "ratio",
        ));
    }
    let [train, construct, warmup] = layer.setup;
    metrics.extend([
        Metric::new("setup.train_s", train, "s"),
        Metric::new("setup.construct_s", construct, "s"),
        Metric::new("setup.warmup_s", warmup, "s"),
        Metric::new("trace.coverage", layer.coverage, "ratio"),
        Metric::new("trace.overhead", layer.overhead, "ratio"),
        Metric::new("share.fresh", m.share(m.fresh), "ratio"),
        Metric::new("share.hot", m.share(m.hot), "ratio"),
        Metric::new("share.burst", m.share(m.burst), "ratio"),
        Metric::new(
            "share.batched",
            layer.delta.batched as f64 / layer.delta.served.max(1) as f64,
            "ratio",
        ),
        Metric::new("share.mutated", m.share(m.mutated), "ratio"),
        Metric::new("share.gathered", m.share(m.gathered), "ratio"),
        Metric::new("load.nproc", layer.plan.nproc as f64, "count"),
        Metric::new(
            "load.shards_per_device",
            layer.plan.shards_per_device as f64,
            "count",
        ),
        Metric::new("load.workers", layer.plan.workers() as f64, "count"),
        Metric::new("load.window", layer.window, "count"),
    ]);
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "{}",
        result_json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if !report.correct {
        std::process::exit(1);
    }
}

//! Load test of the sharded [`ServingPool`] against a sequential
//! [`SeerEngine`] on the same deterministic traffic stream — in both the
//! classic single-device configuration and a heterogeneous device fleet.
//!
//! The stream comes from [`seer_sparse::traffic`] (Zipf-like hot set, bursts,
//! bimodal iteration counts; the fleet scenario widens the iteration mix so
//! placement varies), so every run — and every future regression check —
//! replays the exact same requests. Both sides execute the full
//! select-and-run pipeline: plan lookup/computation plus a functional SpMV of
//! the chosen kernel, which is the CPU-bound work that gives the pool
//! something real to parallelize.
//!
//! ```text
//! cargo run -p seer_bench --release --bin loadtest_serving            # full run
//! cargo run -p seer_bench --release --bin loadtest_serving -- --smoke # CI smoke
//! cargo run -p seer_bench --release --bin loadtest_serving -- \
//!     --shards 8 --requests 20000                                     # custom
//! cargo run -p seer_bench --release --bin loadtest_serving -- \
//!     --fleet 3 --smoke --out BENCH_loadtest_fleet3.json              # fleet CI
//! cargo run -p seer_bench --release --bin loadtest_serving -- \
//!     --families --smoke --out BENCH_loadtest_families.json           # family CI
//! cargo run -p seer_bench --release --bin loadtest_serving -- \
//!     --chaos --smoke --out BENCH_loadtest_chaos.json                 # chaos CI
//! cargo run -p seer_bench --release --bin loadtest_serving -- \
//!     --overload --smoke --out BENCH_loadtest_overload.json           # overload CI
//! cargo run -p seer_bench --release --bin loadtest_serving -- \
//!     --burst --smoke --out BENCH_loadtest_burst.json                 # burst CI
//! ```
//!
//! `--fleet N` builds an `N`-device heterogeneous fleet (MI250-class, MI100,
//! consumer, APU presets in that order), augments the corpus with
//! bandwidth-bound and skew-heavy slices that win on different devices,
//! routes through the device-aware pool (`--shards` then counts per device),
//! and reports per-device lanes. `--out PATH` writes a JSON summary.
//!
//! `--families` replaces the corpus with near-duplicate structure families
//! under cache-hostile uniform traffic and serves the pooled side with
//! structure-class inheritance on ([`PoolConfig::with_class_reuse`]); the
//! sequential side stays from-scratch, so the differential grades how well
//! inherited selections track the exact cold path.
//!
//! The binary always verifies that the pooled responses are bit-identical to
//! the sequential replay (selections and result vectors) before printing
//! throughput, and exits non-zero on any mismatch. In the family lane the
//! check is graded instead: bit-identical whenever pooled and sequential
//! agree on the kernel, solver tolerance when inheritance diverged. The pooled-vs-sequential
//! speedup is reported but only *asserted* (>= 2x, the PR acceptance bar)
//! when the machine actually has >= 4 CPUs available and `--assert-speedup`
//! is passed, because a 4-shard pool cannot beat a single thread on a
//! single-core box no matter how good the code is.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seer_core::engine::{EngineStats, SeerEngine};
use seer_core::serving::{
    AdmissionConfig, PoolConfig, Priority, RoutingConfig, ServingError, ServingPool,
    ServingRequest, ShedPolicy, SubmitOutcome, Ticket,
};
use seer_core::training::TrainingConfig;
use seer_gpu::{DeviceId, Fleet, Gpu};
use seer_sparse::collection::{generate, CollectionConfig, SizeScale};
use seer_sparse::traffic::{
    ChaosEvent, RequestClass, TrafficConfig, TrafficGenerator, TrafficRequest,
};
use seer_sparse::{generators, CsrMatrix, Scalar, SplitMix64};

struct Options {
    smoke: bool,
    shards: usize,
    requests: usize,
    assert_speedup: bool,
    /// Number of heterogeneous fleet devices; 0 = classic single device.
    fleet: usize,
    /// Near-duplicate-family lane: cache-hostile traffic over structure
    /// families, served with structure-class inheritance enabled.
    families: bool,
    /// Chaos lane: a device is hard-failed mid-stream on the
    /// `device_death_mid_stream` traffic scenario; asserts every ticket
    /// resolves, zero wrong results, exact retry/migration counters, and
    /// post-death throughput within 2x of a fleet that never had the device.
    chaos: bool,
    /// Overload lane: calibrate the pool's capacity admission-free, then
    /// offer the `sustained_overload` scenario at ~4x that rate through an
    /// admission-controlled pool; asserts zero unresolved tickets, exact
    /// served/shed/expired/failed balance, bit-identical executed results,
    /// a bounded interactive-class p99 and shedding that lands on the lower
    /// classes.
    overload: bool,
    /// Burst lane: the `identical_burst` and `routing_storm` scenarios
    /// through a routed, micro-batching pool; asserts bit-identical results
    /// against a sequential oracle, `batch_activations <= batched_requests/2`
    /// on the identical-burst stream, a bounded submitter-thread p99 submit
    /// latency independent of cold-vs-warm matrices, zero unresolved tickets
    /// and an exact front-door balance.
    burst: bool,
    out: Option<String>,
}

fn parse_options() -> Options {
    let mut options = Options {
        smoke: false,
        shards: 4,
        requests: 8_000,
        assert_speedup: false,
        fleet: 0,
        families: false,
        chaos: false,
        overload: false,
        burst: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--assert-speedup" => options.assert_speedup = true,
            "--families" => options.families = true,
            "--chaos" => options.chaos = true,
            "--overload" => options.overload = true,
            "--burst" => options.burst = true,
            "--shards" => {
                options.shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards takes a positive integer");
            }
            "--requests" => {
                options.requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests takes a positive integer");
            }
            "--fleet" => {
                options.fleet = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fleet takes a device count (2..=4)");
            }
            "--out" => {
                options.out = Some(args.next().expect("--out takes a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: loadtest_serving [--smoke] [--shards N] [--requests N] \
                     [--assert-speedup] [--fleet N] [--families] [--chaos] [--overload] \
                     [--burst] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if options.families && options.fleet > 0 {
        eprintln!("--families and --fleet are mutually exclusive lanes");
        std::process::exit(2);
    }
    if options.chaos && options.families {
        eprintln!("--chaos and --families are mutually exclusive lanes");
        std::process::exit(2);
    }
    if options.overload && (options.chaos || options.families || options.fleet > 0) {
        eprintln!("--overload is its own lane (no --chaos/--families/--fleet)");
        std::process::exit(2);
    }
    if options.burst && (options.chaos || options.families || options.overload || options.fleet > 0)
    {
        eprintln!("--burst is its own lane (no --chaos/--families/--overload/--fleet)");
        std::process::exit(2);
    }
    if options.chaos && !(options.fleet == 0 || (3..=4).contains(&options.fleet)) {
        eprintln!("--chaos needs a fleet of 3..=4 devices (default 3)");
        std::process::exit(2);
    }
    if options.smoke {
        options.requests = options.requests.min(1_000);
    }
    options
}

/// One generator shape of the near-duplicate-family corpus.
type FamilyShape = Box<dyn Fn(&mut SplitMix64) -> CsrMatrix>;

/// The near-duplicate-family corpus: every member is a *fresh* sparsity
/// pattern (random column placement — exact caches never hit across
/// members) drawn from one of six generator shapes whose quantized
/// structure signatures are stable, so each shape forms one structure
/// class the engine can inherit selections within.
fn family_corpus(members: usize) -> Vec<Arc<CsrMatrix>> {
    let shapes: Vec<FamilyShape> = vec![
        Box::new(|rng| generators::uniform_row_length(3_000, 8, rng)),
        Box::new(|rng| generators::uniform_row_length(1_500, 24, rng)),
        Box::new(|rng| generators::uniform_random(1_500, 1_500, 0.006, rng)),
        Box::new(|rng| generators::uniform_random(3_000, 3_000, 0.003, rng)),
        Box::new(|rng| generators::tall_skinny(3_000, 500, 6, rng)),
        Box::new(|rng| generators::tall_skinny(6_000, 800, 4, rng)),
    ];
    let mut rng = SplitMix64::new(0xFA417);
    let mut corpus = Vec::with_capacity(shapes.len() * members);
    for shape in &shapes {
        for _ in 0..members {
            corpus.push(Arc::new(shape(&mut rng)));
        }
    }
    corpus
}

/// The first `devices` presets of the reference heterogeneous lineup.
fn build_fleet(devices: usize) -> Fleet {
    let presets = Fleet::reference_presets();
    assert!(
        (2..=presets.len()).contains(&devices),
        "--fleet takes 2..={} devices",
        presets.len()
    );
    Fleet::of_specs(presets.into_iter().take(devices)).expect("presets validate")
}

/// The chaos lane: serve the `device_death_mid_stream` scenario over a
/// heterogeneous fleet, hard-fail one device while its backlog is in flight,
/// and prove the pool absorbs it — every ticket resolves, every result
/// matches a sequential single-device reference (bit-identical when the
/// kernels agree, solver tolerance otherwise), the failure/retry/migration
/// counters are exactly consistent, and post-death throughput stays within
/// 2x of a warm pool over a fleet that never had the device.
fn run_chaos(options: &Options) {
    let devices = if options.fleet == 0 { 3 } else { options.fleet };
    let fleet = build_fleet(devices);
    // The victim is the last (smallest) device in the lineup, never the
    // default; the never-had-it reference fleet is simply one device shorter.
    let victim = seer_gpu::DeviceId::new(devices as u16 - 1);

    let collection = generate(&CollectionConfig {
        seed: 2024,
        matrices_per_family: 4,
        scale: if options.smoke {
            SizeScale::Tiny
        } else {
            SizeScale::Small
        },
    });
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())
            .expect("training the chaos loadtest models");
    let mut corpus: Vec<Arc<CsrMatrix>> = collection
        .iter()
        .map(|e| Arc::new(e.matrix.clone()))
        .collect();
    // Same device-discriminating augmentation as the fleet lane, so the
    // victim actually carries traffic worth migrating.
    let mut rng = SplitMix64::new(0xF1EE7);
    let (rows, density) = if options.smoke {
        (1_500, 0.04)
    } else {
        (4_000, 0.03)
    };
    for _ in 0..3 {
        corpus.push(Arc::new(generators::uniform_random(
            rows, rows, density, &mut rng,
        )));
        corpus.push(Arc::new(generators::skewed_rows(
            300, 1, 150, 0.01, &mut rng,
        )));
    }
    let inputs: Vec<Arc<Vec<Scalar>>> = corpus
        .iter()
        .map(|m| Arc::new(vec![1.0; m.cols()]))
        .collect();

    // The chaos *timing* comes from the traffic stream itself: the death
    // lands where the scenario's split RNG says it does.
    let traffic = TrafficConfig::device_death_mid_stream(corpus.len(), 0x10AD);
    let stream: Vec<TrafficRequest> = TrafficGenerator::new(&traffic)
        .take(options.requests)
        .collect();
    let kill_at = stream
        .iter()
        .position(|r| r.chaos == ChaosEvent::KillDevice)
        .unwrap_or(stream.len() / 2);
    println!(
        "chaos loadtest: {} requests over {} matrices, {} shards per device x {} devices, \
         {} dies at request {kill_at}{}",
        stream.len(),
        corpus.len(),
        options.shards,
        devices,
        victim,
        if options.smoke { " (smoke)" } else { "" }
    );
    print!("{fleet}");

    // Sequential single-device reference: the correctness oracle. Placement
    // differs by construction, so results are compared bit-identically when
    // the kernels agree and to solver tolerance when they do not.
    let reference = SeerEngine::new(trained.gpu_handle(), trained.models_handle());
    let sequential: Vec<_> = stream
        .iter()
        .map(|r| {
            reference.execute(
                &corpus[r.matrix_index],
                &inputs[r.matrix_index],
                r.iterations,
            )
        })
        .collect();

    let make_request = |r: &TrafficRequest| {
        ServingRequest::execute(
            Arc::clone(&corpus[r.matrix_index]),
            Arc::clone(&inputs[r.matrix_index]),
            r.iterations,
        )
    };

    // Chaos pool: submit the pre-death backlog, kill the victim while that
    // backlog is in flight, then drain. Queued work re-selects onto the
    // survivors (migrations); work caught mid-execution retries once
    // (device_failures / retried).
    let pool = ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(options.shards),
    );
    let before_tickets = pool.submit_batch(stream[..kill_at].iter().map(make_request));
    fleet.fail_device(victim).expect("victim is live");
    let before: Vec<_> = before_tickets
        .into_iter()
        .map(|t| t.wait().expect("pre-death ticket resolves"))
        .collect();
    // Post-death throughput, measured after the backlog drained so the
    // window contains only survivor-fleet work.
    let post_start = Instant::now();
    let after_tickets = pool.submit_batch(stream[kill_at..].iter().map(make_request));
    let after: Vec<_> = after_tickets
        .into_iter()
        .map(|t| t.wait().expect("post-death ticket resolves"))
        .collect();
    let post_secs = post_start.elapsed().as_secs_f64();
    let post_rps = (stream.len() - kill_at) as f64 / post_secs;
    let stats = pool.shutdown();

    // Reference throughput: a pool over a fleet that never had the victim,
    // warmed on the same pre-death prefix, timed on the same suffix.
    let never_fleet = build_fleet(devices - 1);
    let never_pool = ServingPool::with_fleet(
        never_fleet,
        trained.models_handle(),
        PoolConfig::with_shards(options.shards),
    );
    for ticket in never_pool.submit_batch(stream[..kill_at].iter().map(make_request)) {
        ticket.wait().expect("warmup ticket resolves");
    }
    let never_start = Instant::now();
    let never_tickets = never_pool.submit_batch(stream[kill_at..].iter().map(make_request));
    for ticket in never_tickets {
        ticket.wait().expect("reference ticket resolves");
    }
    let never_secs = never_start.elapsed().as_secs_f64();
    let never_rps = (stream.len() - kill_at) as f64 / never_secs;
    never_pool.shutdown();

    // Differential: every pooled result against the sequential oracle.
    let mut mismatches = 0usize;
    let mut kernel_agreements = 0usize;
    for (index, (seq, pooled)) in sequential
        .iter()
        .zip(before.iter().chain(&after))
        .enumerate()
    {
        let kernels_agree = seq.selection.kernel == pooled.selection.kernel;
        kernel_agreements += usize::from(kernels_agree);
        let got = pooled.result.as_deref();
        let ok = if kernels_agree {
            got == Some(seq.result.as_slice())
        } else {
            got.is_some_and(|got| {
                got.len() == seq.result.len()
                    && got
                        .iter()
                        .zip(&seq.result)
                        .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
            })
        };
        if !ok {
            if mismatches == 0 {
                eprintln!(
                    "MISMATCH at request {index}: sequential {:?} vs pooled {:?}",
                    seq.selection, pooled.selection
                );
            }
            mismatches += 1;
        }
    }

    // Routing selections the engine placed on the victim while it lived.
    let victim_selections = stats.device_engine(victim).selections();
    let recovery = post_rps / never_rps;
    println!(
        "\npost-death throughput  {post_rps:>10.0} req/s\nnever-had-it fleet     {never_rps:>10.0} req/s\nrecovery ratio         {recovery:>10.2}x"
    );
    println!(
        "chaos counters: {} device failures, {} retried, {} migrations, {} failed, \
         {victim_selections} selections placed on the victim",
        stats.device_failures(),
        stats.retried(),
        stats.migrations(),
        stats.failed(),
    );

    // The chaos invariants. Every ticket resolved Ok above (the waits
    // panicked otherwise), so the counters must balance exactly: each
    // device failure was followed by a successful bounded retry, and no
    // request was lost or double-served.
    assert_eq!(mismatches, 0, "pooled results diverged from the oracle");
    assert_eq!(stats.completed(), stream.len() as u64);
    assert_eq!(stats.queue_depth(), 0);
    assert_eq!(stats.failed(), 0, "no ticket may resolve to an error");
    assert_eq!(
        stats.device_failures(),
        stats.retried(),
        "every device failure must be absorbed by the one bounded retry"
    );
    assert!(
        victim_selections > 0,
        "the scenario must place traffic on the victim before the death"
    );
    assert!(
        stats.migrations() > 0,
        "the victim's backlog must migrate to the survivors"
    );
    assert!(
        recovery >= 0.5,
        "post-death throughput {post_rps:.0} req/s must be within 2x of the \
         never-had-the-device fleet's {never_rps:.0} req/s"
    );
    println!(
        "chaos check: OK ({} requests, 0 unresolved, 0 wrong results, {:.1}% kernel agreement)",
        stream.len(),
        100.0 * kernel_agreements as f64 / stream.len().max(1) as f64
    );

    if let Some(path) = &options.out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"loadtest_serving_chaos\",");
        let _ = writeln!(json, "  \"smoke\": {},", options.smoke);
        let _ = writeln!(json, "  \"requests\": {},", stream.len());
        let _ = writeln!(json, "  \"corpus_matrices\": {},", corpus.len());
        let _ = writeln!(json, "  \"fleet_devices\": {devices},");
        let _ = writeln!(json, "  \"victim\": \"{victim}\",");
        let _ = writeln!(json, "  \"kill_at\": {kill_at},");
        let _ = writeln!(json, "  \"device_failures\": {},", stats.device_failures());
        let _ = writeln!(json, "  \"retried\": {},", stats.retried());
        let _ = writeln!(json, "  \"migrations\": {},", stats.migrations());
        let _ = writeln!(json, "  \"retry_rate\": {:.6},", stats.retry_rate());
        let _ = writeln!(json, "  \"migration_rate\": {:.6},", stats.migration_rate());
        let _ = writeln!(json, "  \"victim_selections\": {victim_selections},");
        let _ = writeln!(json, "  \"post_death_rps\": {post_rps:.0},");
        let _ = writeln!(json, "  \"never_had_device_rps\": {never_rps:.0},");
        let _ = writeln!(json, "  \"recovery_ratio\": {recovery:.2},");
        let _ = writeln!(json, "  \"differential_ok\": true");
        json.push_str("}\n");
        std::fs::write(path, &json).expect("writing the chaos report");
        println!("wrote {path}");
    }
}

/// Maps a traffic-stream service class onto the serving pool's priority.
fn class_priority(class: RequestClass) -> Priority {
    match class {
        RequestClass::Interactive => Priority::Interactive,
        RequestClass::Batch => Priority::Batch,
        RequestClass::BestEffort => Priority::BestEffort,
    }
}

/// The overload lane: calibrate what the pool can actually serve with
/// admission control off, then offer the `sustained_overload` stream at ~4x
/// that rate through a bounded, priority-aware, deadline-aware front door.
/// The pool must stay fully accounted under pressure: zero unresolved
/// tickets, an exact `served + shed + expired + failed == offered` balance
/// mirrored by the pool's own counters, executed results bit-identical to a
/// sequential reference, a bounded interactive-class p99 and shedding that
/// lands on the lower classes.
fn run_overload(options: &Options) {
    /// Per-shard queue bound of the overload pool: small enough that a 4x
    /// overload actually sheds instead of queueing the whole stream.
    const QUEUE_CAPACITY: usize = 32;

    let collection = generate(&CollectionConfig {
        seed: 2024,
        matrices_per_family: 4,
        scale: if options.smoke {
            SizeScale::Tiny
        } else {
            SizeScale::Small
        },
    });
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())
            .expect("training the overload loadtest models");
    let corpus: Vec<Arc<CsrMatrix>> = collection
        .iter()
        .map(|e| Arc::new(e.matrix.clone()))
        .collect();
    let inputs: Vec<Arc<Vec<Scalar>>> = corpus
        .iter()
        .map(|m| Arc::new(vec![1.0; m.cols()]))
        .collect();
    let traffic = TrafficConfig::sustained_overload(corpus.len(), 0x10AD);
    let stream: Vec<TrafficRequest> = TrafficGenerator::new(&traffic)
        .take(options.requests)
        .collect();
    println!(
        "overload loadtest: {} requests over {} matrices, {} shards, queue capacity \
         {QUEUE_CAPACITY}{}",
        stream.len(),
        corpus.len(),
        options.shards,
        if options.smoke { " (smoke)" } else { "" }
    );

    // Sequential oracle: the correctness reference for whatever subset the
    // overloaded pool ends up serving.
    let reference = SeerEngine::new(trained.gpu_handle(), trained.models_handle());
    let sequential: Vec<_> = stream
        .iter()
        .map(|r| {
            reference.execute(
                &corpus[r.matrix_index],
                &inputs[r.matrix_index],
                r.iterations,
            )
        })
        .collect();

    let make_request = |r: &TrafficRequest| {
        let mut request = ServingRequest::execute(
            Arc::clone(&corpus[r.matrix_index]),
            Arc::clone(&inputs[r.matrix_index]),
            r.iterations,
        )
        .with_priority(class_priority(r.class));
        if let Some(deadline_us) = r.deadline_us {
            request = request.with_timeout(Duration::from_micros(deadline_us));
        }
        request
    };

    // Phase 1: capacity calibration. An admission-free pool serves a prefix
    // as fast as it can — no deadlines, no classes — and that throughput is
    // the pool's sustained capacity.
    let calibration_len = stream.len().min(2_000);
    let calibration_pool =
        ServingPool::from_engine(&reference, PoolConfig::with_shards(options.shards));
    let calibration_start = Instant::now();
    for ticket in calibration_pool.submit_batch(stream[..calibration_len].iter().map(|r| {
        ServingRequest::execute(
            Arc::clone(&corpus[r.matrix_index]),
            Arc::clone(&inputs[r.matrix_index]),
            r.iterations,
        )
    })) {
        ticket.wait().expect("calibration ticket resolves");
    }
    let capacity_rps = calibration_len as f64 / calibration_start.elapsed().as_secs_f64();
    calibration_pool.shutdown();

    // Phase 2: a fresh admission-controlled pool offered ~4x that capacity.
    // The pool-wide in-flight cap sits below the summed queue bounds, so it
    // binds before any per-shard queue fills: DropLowestPriority sheds by
    // class at the cap, evicting queued lower-class work for a newcomer.
    let admission = AdmissionConfig::bounded(QUEUE_CAPACITY)
        .with_max_in_flight(options.shards * QUEUE_CAPACITY * 3 / 4)
        .with_shed_policy(ShedPolicy::DropLowestPriority);
    let pool = ServingPool::from_engine(
        &reference,
        PoolConfig::with_shards(options.shards).with_admission(Some(admission)),
    );
    let offered_rate = 4.0 * capacity_rps;
    let mut tickets: Vec<Option<Ticket>> = Vec::with_capacity(stream.len());
    let offered_start = Instant::now();
    let mut next = 0usize;
    while next < stream.len() {
        // Catch-up pacing: submit everything due by now, then nap. The
        // offered rate tracks the 4x target even with coarse sleeps.
        let due = (((offered_start.elapsed().as_secs_f64() * offered_rate) as usize).max(next + 1))
            .min(stream.len());
        while next < due {
            tickets.push(match pool.try_submit(make_request(&stream[next])) {
                SubmitOutcome::Accepted(ticket) => Some(ticket),
                SubmitOutcome::Shed { .. } => None,
            });
            next += 1;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let offered_rps = stream.len() as f64 / offered_start.elapsed().as_secs_f64();

    // Resolve every ticket. `wait_timeout` returning `None` means a ticket
    // leaked — exactly what the admission controller must never allow.
    let mut served = 0u64;
    let mut shed = 0u64;
    let mut expired = 0u64;
    let mut failed = 0u64;
    let mut offered_by_class = [0u64; 3];
    let mut served_by_class = [0u64; 3];
    let mut shed_by_class = [0u64; 3];
    let mut mismatches = 0usize;
    for (index, slot) in tickets.iter_mut().enumerate() {
        let lane = class_priority(stream[index].class).lane();
        offered_by_class[lane] += 1;
        let Some(ticket) = slot else {
            shed += 1;
            shed_by_class[lane] += 1;
            continue;
        };
        match ticket.wait_timeout(Duration::from_secs(30)) {
            Ok(Some(response)) => {
                served += 1;
                served_by_class[lane] += 1;
                let seq = &sequential[index];
                let ok = response.selection == seq.selection
                    && response.result.as_deref() == Some(seq.result.as_slice());
                if !ok {
                    if mismatches == 0 {
                        eprintln!(
                            "MISMATCH at request {index}: sequential {:?} vs pooled {:?}",
                            seq.selection, response.selection
                        );
                    }
                    mismatches += 1;
                }
            }
            Ok(None) => panic!("request {index} unresolved after 30s — a ticket leaked"),
            Err(ServingError::DeadlineExceeded { .. }) => expired += 1,
            Err(ServingError::Shed { .. }) => {
                shed += 1;
                shed_by_class[lane] += 1;
            }
            Err(other) => {
                eprintln!("request {index} failed: {other}");
                failed += 1;
            }
        }
    }
    let stats = pool.shutdown();

    let shed_rate = |lane: usize| shed_by_class[lane] as f64 / offered_by_class[lane].max(1) as f64;
    let interactive_p99 = stats.latency.end_to_end(Priority::Interactive).p99();
    let interactive_wait_p99 = stats.latency.queue_wait(Priority::Interactive).p99();
    println!(
        "\ncapacity (calibrated)  {capacity_rps:>10.0} req/s\noffered                {offered_rps:>10.0} req/s ({:.1}x capacity)",
        offered_rps / capacity_rps
    );
    println!(
        "outcomes: {served} served, {shed} shed, {expired} expired, {failed} failed \
         of {} offered",
        stream.len()
    );
    println!(
        "front door: {} queue-full, {} in-flight-cap, {} evicted, {} closed",
        stats.admission.shed_queue_full,
        stats.admission.shed_in_flight,
        stats.admission.evicted,
        stats.admission.shed_closed,
    );
    for priority in Priority::ALL {
        let lane = priority.lane();
        println!(
            "  {priority:<12} offered {:>6}  served {:>6}  shed {:>6} ({:>5.1}%)  \
             queue-wait p99 {:>9.1?}  e2e p99 {:>9.1?}",
            offered_by_class[lane],
            served_by_class[lane],
            shed_by_class[lane],
            100.0 * shed_rate(lane),
            stats.latency.queue_wait(priority).p99(),
            stats.latency.end_to_end(priority).p99(),
        );
    }

    // The overload invariants. Exact balance first: the harness's view and
    // the pool's own counters must agree term by term.
    assert_eq!(
        served + shed + expired + failed,
        stream.len() as u64,
        "every offered request resolves exactly once"
    );
    assert_eq!(stats.offered(), stream.len() as u64);
    assert_eq!(stats.served(), served, "served balance");
    assert_eq!(stats.shed(), shed, "shed balance");
    assert_eq!(stats.expired(), expired, "expired balance");
    assert_eq!(stats.failed(), failed, "failed balance");
    assert_eq!(failed, 0, "overload is not an error path");
    assert_eq!(stats.admission.in_flight, 0, "no in-flight slot leaked");
    assert_eq!(stats.queue_depth(), 0);
    assert_eq!(mismatches, 0, "served results diverged from the oracle");
    assert!(shed > 0, "a 4x overload must shed");
    assert!(
        served > 0,
        "an admission-controlled pool under overload still serves"
    );
    // Interactive latency stays bounded by the queue, not by the backlog:
    // a served interactive request waited behind at most a queue's worth of
    // work (generous 8x slack for the service-time mix).
    let mean_service = Duration::from_secs_f64(options.shards as f64 / capacity_rps);
    let p99_bound = mean_service * (8 * (QUEUE_CAPACITY as u32 + 2));
    assert!(
        interactive_p99 <= p99_bound,
        "interactive p99 {interactive_p99:?} exceeds the bounded-queue limit {p99_bound:?}"
    );
    // Shedding lands on the lower classes: under DropLowestPriority the
    // interactive slice sheds at a strictly lower rate than best-effort.
    assert!(
        shed_rate(0) < shed_rate(2),
        "interactive shed rate {:.3} must stay below best-effort's {:.3}",
        shed_rate(0),
        shed_rate(2)
    );
    println!(
        "overload check: OK ({} requests, 0 unresolved, exact balance, \
         interactive p99 {interactive_p99:.1?} <= {p99_bound:.1?}, queue-wait p99 {interactive_wait_p99:.1?})",
        stream.len()
    );

    if let Some(path) = &options.out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"loadtest_serving_overload\",");
        let _ = writeln!(json, "  \"smoke\": {},", options.smoke);
        let _ = writeln!(json, "  \"requests\": {},", stream.len());
        let _ = writeln!(json, "  \"corpus_matrices\": {},", corpus.len());
        let _ = writeln!(json, "  \"shards\": {},", options.shards);
        let _ = writeln!(json, "  \"queue_capacity\": {QUEUE_CAPACITY},");
        let _ = writeln!(json, "  \"capacity_rps\": {capacity_rps:.0},");
        let _ = writeln!(json, "  \"offered_rps\": {offered_rps:.0},");
        let _ = writeln!(json, "  \"served\": {served},");
        let _ = writeln!(json, "  \"shed\": {shed},");
        let _ = writeln!(json, "  \"expired\": {expired},");
        let _ = writeln!(json, "  \"failed\": {failed},");
        let _ = writeln!(
            json,
            "  \"shed_queue_full\": {},",
            stats.admission.shed_queue_full
        );
        let _ = writeln!(
            json,
            "  \"shed_in_flight\": {},",
            stats.admission.shed_in_flight
        );
        let _ = writeln!(json, "  \"evicted\": {},", stats.admission.evicted);
        let _ = writeln!(
            json,
            "  \"backpressure_waits\": {},",
            stats.admission.backpressure_waits
        );
        let _ = writeln!(json, "  \"classes\": [");
        for (index, priority) in Priority::ALL.into_iter().enumerate() {
            let lane = priority.lane();
            let _ = writeln!(json, "    {{");
            let _ = writeln!(json, "      \"class\": \"{priority}\",");
            let _ = writeln!(json, "      \"offered\": {},", offered_by_class[lane]);
            let _ = writeln!(json, "      \"served\": {},", served_by_class[lane]);
            let _ = writeln!(json, "      \"shed\": {},", shed_by_class[lane]);
            let _ = writeln!(
                json,
                "      \"queue_wait_p99_us\": {:.1},",
                stats.latency.queue_wait(priority).p99().as_secs_f64() * 1e6
            );
            let _ = writeln!(
                json,
                "      \"end_to_end_p99_us\": {:.1}",
                stats.latency.end_to_end(priority).p99().as_secs_f64() * 1e6
            );
            let _ = writeln!(
                json,
                "    }}{}",
                if index + 1 < Priority::ALL.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(
            json,
            "  \"interactive_p99_us\": {:.1},",
            interactive_p99.as_secs_f64() * 1e6
        );
        let _ = writeln!(
            json,
            "  \"p99_bound_us\": {:.1},",
            p99_bound.as_secs_f64() * 1e6
        );
        let _ = writeln!(json, "  \"balance_ok\": true,");
        let _ = writeln!(json, "  \"differential_ok\": true");
        json.push_str("}\n");
        std::fs::write(path, &json).expect("writing the overload report");
        println!("wrote {path}");
    }
}

/// What one burst-lane phase measured: throughput on both sides, the
/// submitter-thread latency split by cold-vs-warm matrix, and the pool's
/// own counters.
struct BurstPhase {
    sequential_rps: f64,
    pooled_rps: f64,
    cold_p99: Duration,
    warm_p99: Duration,
    cold_submits: usize,
    warm_submits: usize,
    stats: seer_core::serving::PoolStats,
}

/// p99 of a latency sample set (`ZERO` when empty). Sorts in place.
fn sample_p99(samples: &mut [Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    samples[(samples.len() - 1) * 99 / 100]
}

/// One burst-lane phase: replay `stream` through a sequential oracle, then
/// through the given routed pool, timing every submit on the submitter
/// thread and classifying it cold (first sight of the matrix) or warm.
/// Asserts the shared invariants — bit-identical results, exact balance,
/// every submit routed off-thread, and a cold-submit p99 that stays in the
/// same regime as the warm one (submit cost must not depend on whether the
/// matrix needs a cold routing decision).
fn run_burst_phase(
    label: &str,
    stream: &[TrafficRequest],
    corpus: &[Arc<CsrMatrix>],
    inputs: &[Arc<Vec<Scalar>>],
    oracle: &SeerEngine,
    pool: ServingPool,
) -> BurstPhase {
    let sequential_start = Instant::now();
    let sequential: Vec<_> = stream
        .iter()
        .map(|r| {
            oracle.execute(
                &corpus[r.matrix_index],
                &inputs[r.matrix_index],
                r.iterations,
            )
        })
        .collect();
    let sequential_rps = stream.len() as f64 / sequential_start.elapsed().as_secs_f64();

    let mut seen = vec![false; corpus.len()];
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut tickets = Vec::with_capacity(stream.len());
    let pooled_start = Instant::now();
    for r in stream {
        let request = ServingRequest::execute(
            Arc::clone(&corpus[r.matrix_index]),
            Arc::clone(&inputs[r.matrix_index]),
            r.iterations,
        );
        let submit_start = Instant::now();
        let ticket = pool.submit(request);
        let elapsed = submit_start.elapsed();
        if std::mem::replace(&mut seen[r.matrix_index], true) {
            warm.push(elapsed);
        } else {
            cold.push(elapsed);
        }
        tickets.push(ticket);
    }
    let mut mismatches = 0usize;
    for (index, (mut ticket, seq)) in tickets.into_iter().zip(&sequential).enumerate() {
        let response = match ticket.wait_timeout(Duration::from_secs(30)) {
            Ok(Some(response)) => response,
            Ok(None) => panic!("{label}: request {index} unresolved after 30s — a ticket leaked"),
            Err(error) => panic!("{label}: request {index} failed: {error}"),
        };
        let ok = response.selection == seq.selection
            && response.result.as_deref() == Some(seq.result.as_slice());
        if !ok {
            if mismatches == 0 {
                eprintln!(
                    "MISMATCH at {label} request {index}: sequential {:?} vs pooled {:?}",
                    seq.selection, response.selection
                );
            }
            mismatches += 1;
        }
    }
    let pooled_rps = stream.len() as f64 / pooled_start.elapsed().as_secs_f64();
    let stats = pool.shutdown();

    assert_eq!(
        mismatches, 0,
        "{label}: pooled results diverged from the sequential oracle"
    );
    let n = stream.len() as u64;
    assert!(stats.routing.enabled, "{label}: pool must be routed");
    assert_eq!(
        stats.routing.routed_async, n,
        "{label}: every accepted request routes off the submitter thread"
    );
    assert_eq!(stats.routing.submit.count(), n);
    assert_eq!(stats.routing.in_stage, 0, "{label}: routing stage drained");
    assert_eq!(
        stats.routing.shed_stage_full + stats.routing.stage_closed,
        0
    );
    assert_eq!(stats.offered(), n);
    assert_eq!(stats.served(), n);
    assert_eq!(stats.shed() + stats.expired() + stats.failed(), 0);
    assert_eq!(stats.queue_depth(), 0);

    // Submit is an O(1) stage enqueue: a cold matrix (routing decision still
    // to be made) must cost the submitter the same as a warm one. The p99
    // bound is relative to warm with an absolute scheduler-noise floor.
    let cold_p99 = sample_p99(&mut cold);
    let warm_p99 = sample_p99(&mut warm);
    let bound = (warm_p99.max(Duration::from_micros(50)) * 32).max(Duration::from_millis(10));
    assert!(
        cold_p99 <= bound,
        "{label}: cold-matrix submit p99 {cold_p99:?} exceeds {bound:?} \
         (warm p99 {warm_p99:?}) — submit is no longer O(1)"
    );
    assert!(
        stats.routing.submit.p99() <= Duration::from_millis(10),
        "{label}: submitter-thread p99 {:?} exceeds 10ms",
        stats.routing.submit.p99()
    );

    println!(
        "{label}: {} requests, sequential {sequential_rps:.0} req/s, pooled {pooled_rps:.0} req/s, \
         submit p99 {:?} (cold {cold_p99:?} x{}, warm {warm_p99:?} x{}), \
         {} batched in {} activations (mean {:.2})",
        stream.len(),
        stats.routing.submit.p99(),
        cold.len(),
        warm.len(),
        stats.routing.batched_requests,
        stats.routing.batch_activations,
        stats.routing.mean_batch_size(),
    );
    BurstPhase {
        sequential_rps,
        pooled_rps,
        cold_p99,
        warm_p99,
        cold_submits: cold.len(),
        warm_submits: warm.len(),
        stats,
    }
}

/// The burst lane: same-fingerprint micro-batching and O(1) submit under
/// the two routing-centric traffic scenarios. Phase one replays
/// `identical_burst` (hot set, long fully-identical bursts) through a
/// routed single-device pool and demands real coalescing: at most one plan
/// activation per two batched requests. Phase two replays `routing_storm`
/// (cache-hostile, every burst identical, cold matrices flooding in)
/// through a routed three-device fleet pool, where a pre-routing submit
/// path would pay a per-cold-matrix placement sweep on the submitter
/// thread — the cold/warm p99 assertion pins that cost to the routing
/// worker instead. Both phases are differentials against a sequential
/// oracle and must be bit-identical.
fn run_burst(options: &Options) {
    let collection = generate(&CollectionConfig {
        seed: 2024,
        matrices_per_family: 4,
        scale: if options.smoke {
            SizeScale::Tiny
        } else {
            SizeScale::Small
        },
    });
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())
            .expect("training the burst loadtest models");
    let corpus: Vec<Arc<CsrMatrix>> = collection
        .iter()
        .map(|e| Arc::new(e.matrix.clone()))
        .collect();
    let inputs: Vec<Arc<Vec<Scalar>>> = corpus
        .iter()
        .map(|m| Arc::new(vec![1.0; m.cols()]))
        .collect();
    println!(
        "burst loadtest: {} requests per phase over {} matrices, {} shards{}",
        options.requests,
        corpus.len(),
        options.shards,
        if options.smoke { " (smoke)" } else { "" }
    );

    // An unbounded stage isolates what this lane measures: the submit cost
    // is the stage enqueue itself, never a backpressure wait.
    let routing = RoutingConfig::default().with_stage_capacity(0);

    // Phase one: identical bursts, single device — the micro-batching case.
    let reference = SeerEngine::new(trained.gpu_handle(), trained.models_handle());
    let burst_stream: Vec<TrafficRequest> =
        TrafficGenerator::new(&TrafficConfig::identical_burst(corpus.len(), 0x10AD))
            .take(options.requests)
            .collect();
    let burst = run_burst_phase(
        "identical_burst",
        &burst_stream,
        &corpus,
        &inputs,
        &reference,
        ServingPool::from_engine(
            &reference,
            PoolConfig::with_shards(options.shards).with_routing(Some(routing)),
        ),
    );
    // The acceptance bar: the identical-burst stream coalesces for real — at
    // least a 2x reduction in plan activations over its batched span.
    assert!(
        burst.stats.routing.batch_activations >= 1,
        "identical_burst: the stream must form at least one coalesced run"
    );
    assert!(
        burst.stats.routing.batch_activations <= burst.stats.routing.batched_requests / 2,
        "identical_burst: {} activations for {} batched requests — less than \
         2x activation reduction",
        burst.stats.routing.batch_activations,
        burst.stats.routing.batched_requests,
    );
    assert!(
        burst.stats.routing.mean_batch_size() >= 2.0,
        "coalesced runs have two or more members by construction"
    );

    // Phase two: a cold-matrix storm over a heterogeneous fleet — the O(1)
    // submit case (placement decisions are the expensive part to offload).
    let fleet = build_fleet(3);
    let storm_oracle = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    let storm_stream: Vec<TrafficRequest> =
        TrafficGenerator::new(&TrafficConfig::routing_storm(corpus.len(), 0x570F4))
            .take(options.requests)
            .collect();
    let storm = run_burst_phase(
        "routing_storm",
        &storm_stream,
        &corpus,
        &inputs,
        &storm_oracle,
        ServingPool::with_fleet(
            fleet,
            trained.models_handle(),
            PoolConfig::with_shards(options.shards).with_routing(Some(routing)),
        ),
    );

    println!(
        "burst check: OK ({} requests per phase, 0 unresolved, exact balance, \
         bit-identical, {:.2} mean batch size)",
        options.requests,
        burst.stats.routing.mean_batch_size()
    );

    if let Some(path) = &options.out {
        let phase_json = |json: &mut String, name: &str, phase: &BurstPhase, n: usize| {
            let routing = &phase.stats.routing;
            let _ = writeln!(json, "  \"{name}\": {{");
            let _ = writeln!(json, "    \"requests\": {n},");
            let _ = writeln!(json, "    \"sequential_rps\": {:.0},", phase.sequential_rps);
            let _ = writeln!(json, "    \"pooled_rps\": {:.0},", phase.pooled_rps);
            let _ = writeln!(json, "    \"routed_async\": {},", routing.routed_async);
            let _ = writeln!(
                json,
                "    \"batched_requests\": {},",
                routing.batched_requests
            );
            let _ = writeln!(
                json,
                "    \"batch_activations\": {},",
                routing.batch_activations
            );
            let _ = writeln!(
                json,
                "    \"mean_batch_size\": {:.2},",
                routing.mean_batch_size()
            );
            let _ = writeln!(
                json,
                "    \"submit_p99_us\": {:.1},",
                routing.submit.p99().as_secs_f64() * 1e6
            );
            let _ = writeln!(json, "    \"cold_submits\": {},", phase.cold_submits);
            let _ = writeln!(
                json,
                "    \"cold_submit_p99_us\": {:.1},",
                phase.cold_p99.as_secs_f64() * 1e6
            );
            let _ = writeln!(json, "    \"warm_submits\": {},", phase.warm_submits);
            let _ = writeln!(
                json,
                "    \"warm_submit_p99_us\": {:.1}",
                phase.warm_p99.as_secs_f64() * 1e6
            );
            let _ = writeln!(json, "  }},");
        };
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"loadtest_serving_burst\",");
        let _ = writeln!(json, "  \"smoke\": {},", options.smoke);
        let _ = writeln!(json, "  \"corpus_matrices\": {},", corpus.len());
        let _ = writeln!(json, "  \"shards\": {},", options.shards);
        phase_json(&mut json, "identical_burst", &burst, burst_stream.len());
        phase_json(&mut json, "routing_storm", &storm, storm_stream.len());
        let _ = writeln!(json, "  \"storm_fleet_devices\": 3,");
        let _ = writeln!(json, "  \"balance_ok\": true,");
        let _ = writeln!(json, "  \"differential_ok\": true");
        json.push_str("}\n");
        std::fs::write(path, &json).expect("writing the burst report");
        println!("wrote {path}");
    }
}

fn main() {
    let options = parse_options();
    if options.chaos {
        run_chaos(&options);
        return;
    }
    if options.overload {
        run_overload(&options);
        return;
    }
    if options.burst {
        run_burst(&options);
        return;
    }

    // Deterministic setup: corpus, trained engine, request stream.
    let collection = generate(&CollectionConfig {
        seed: 2024,
        matrices_per_family: 4,
        scale: if options.smoke {
            SizeScale::Tiny
        } else {
            SizeScale::Small
        },
    });
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())
            .expect("training the loadtest models");

    let mut corpus: Vec<Arc<CsrMatrix>> = if options.families {
        // The family lane swaps the golden corpus for near-duplicate
        // families (the trained models still come from the collection).
        family_corpus(if options.smoke { 8 } else { 16 })
    } else {
        collection
            .iter()
            .map(|e| Arc::new(e.matrix.clone()))
            .collect()
    };

    // Fleet mode: a corpus whose slices win on different devices — big
    // bandwidth-bound uniform matrices for the flagships, small skew-heavy
    // ones for the low-overhead devices — under a wide iteration mix.
    let fleet = (options.fleet > 0).then(|| build_fleet(options.fleet));
    if fleet.is_some() {
        let mut rng = SplitMix64::new(0xF1EE7);
        let (rows, density) = if options.smoke {
            (1_500, 0.04)
        } else {
            (4_000, 0.03)
        };
        for _ in 0..3 {
            corpus.push(Arc::new(generators::uniform_random(
                rows, rows, density, &mut rng,
            )));
            corpus.push(Arc::new(generators::skewed_rows(
                300, 1, 150, 0.01, &mut rng,
            )));
        }
    }

    let inputs: Vec<Arc<Vec<Scalar>>> = corpus
        .iter()
        .map(|m| Arc::new(vec![1.0; m.cols()]))
        .collect();
    let traffic = if options.families {
        TrafficConfig::near_duplicate_families(corpus.len(), 0x10AD)
    } else {
        match &fleet {
            Some(_) => TrafficConfig::fleet_mixed(corpus.len(), 0x10AD),
            None => TrafficConfig::skewed(corpus.len(), 0x10AD),
        }
    };
    let stream: Vec<TrafficRequest> = TrafficGenerator::new(&traffic)
        .take(options.requests)
        .collect();
    println!(
        "loadtest: {} requests over {} matrices, {} shards{}{}{}",
        stream.len(),
        corpus.len(),
        options.shards,
        match &fleet {
            Some(fleet) => format!(" per device x {} devices", fleet.len()),
            None => String::new(),
        },
        if options.families {
            " (family lane, class reuse on)"
        } else {
            ""
        },
        if options.smoke { " (smoke)" } else { "" }
    );
    if let Some(fleet) = &fleet {
        print!("{fleet}");
    }

    // Sequential baseline: one engine (fleet-aware in fleet mode), one
    // thread, same stream.
    let engine = match &fleet {
        Some(fleet) => SeerEngine::with_fleet(fleet.clone(), trained.models_handle()),
        None => SeerEngine::new(trained.gpu_handle(), trained.models_handle()),
    };
    let sequential_start = Instant::now();
    let sequential: Vec<_> = stream
        .iter()
        .map(|r| {
            engine.execute(
                &corpus[r.matrix_index],
                &inputs[r.matrix_index],
                r.iterations,
            )
        })
        .collect();
    let sequential_secs = sequential_start.elapsed().as_secs_f64();
    let sequential_rps = stream.len() as f64 / sequential_secs;
    let engine_stats = engine.stats();

    // Pooled run: same models, fresh caches, N shards (per device). The
    // family lane turns structure-class inheritance on pool-side only: the
    // sequential engine stays the from-scratch reference the differential
    // measures inheritance against.
    let pool_config = PoolConfig::with_shards(options.shards).with_class_reuse(options.families);
    let pool = match &fleet {
        Some(fleet) => ServingPool::with_fleet(fleet.clone(), trained.models_handle(), pool_config),
        None => ServingPool::from_engine(&engine, pool_config),
    };
    let pooled_start = Instant::now();
    let tickets = pool.submit_batch(stream.iter().map(|r| {
        ServingRequest::execute(
            Arc::clone(&corpus[r.matrix_index]),
            Arc::clone(&inputs[r.matrix_index]),
            r.iterations,
        )
    }));
    let pooled: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("healthy worker"))
        .collect();
    let pooled_secs = pooled_start.elapsed().as_secs_f64();
    let pooled_rps = stream.len() as f64 / pooled_secs;
    let stats = pool.shutdown();

    // Differential check. Classic lanes demand a bit-identical replay. The
    // family lane serves with inheritance, which is arrival-order-sensitive
    // under concurrency — a shard may decide a class before or after its
    // seed — so the guarantee is graded: whenever pooled and sequential
    // agree on the kernel the result must still be bit-identical, and when
    // they diverge the results must agree to solver tolerance.
    let mut mismatches = 0usize;
    let mut kernel_agreements = 0usize;
    for (index, (seq, pool_response)) in sequential.iter().zip(&pooled).enumerate() {
        let pooled_result = pool_response.result.as_deref();
        let ok = if options.families {
            let kernels_agree = seq.selection.kernel == pool_response.selection.kernel;
            kernel_agreements += usize::from(kernels_agree);
            if kernels_agree {
                pooled_result == Some(seq.result.as_slice())
            } else {
                pooled_result.is_some_and(|got| {
                    got.len() == seq.result.len()
                        && got
                            .iter()
                            .zip(&seq.result)
                            .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
                })
            }
        } else {
            seq.selection == pool_response.selection && pooled_result == Some(seq.result.as_slice())
        };
        if !ok {
            if mismatches == 0 {
                eprintln!(
                    "MISMATCH at request {index}: sequential {:?} vs pooled {:?}",
                    seq.selection, pool_response.selection
                );
            }
            mismatches += 1;
        }
    }

    let aggregated = stats.engine();
    println!("\n                     requests/sec    plan hit rate");
    println!(
        "  sequential (1 thr)   {sequential_rps:>10.0}          {:>5.1}%",
        engine_stats.plan_hit_rate() * 100.0
    );
    println!(
        "  pooled ({} shards)    {pooled_rps:>10.0}          {:>5.1}%",
        stats.shards.len(),
        aggregated.plan_hit_rate() * 100.0
    );
    let speedup = pooled_rps / sequential_rps;
    println!("  speedup              {speedup:>10.2}x");
    println!("\nper-shard: (submitted / completed / migrated)");
    for shard in &stats.shards {
        println!(
            "  shard {}: {:>6} / {:>6} / {:>6}",
            shard.shard, shard.submitted, shard.completed, shard.migrated,
        );
    }
    // The engine's per-device breakdown: where its selections placed work.
    let devices: Vec<(DeviceId, EngineStats)> = engine
        .fleet()
        .ids()
        .map(|device| (device, stats.device_engine(device)))
        .collect();
    println!("\nper-device engine: (hits / misses / preparations)");
    for (device, counters) in &devices {
        println!(
            "  {device}: {:>6} / {:>6} / {:>5}",
            counters.plan_hits, counters.plan_misses, counters.plan_preparations
        );
    }
    println!(
        "\ntotals: {} submitted, {} completed, queue depth {}, {} feature collections, {} fallbacks",
        stats.submitted(),
        stats.completed(),
        stats.queue_depth(),
        aggregated.feature_collections,
        aggregated.misprediction_fallbacks
    );

    // Invariants the driver relies on, checked on every run including smoke.
    assert_eq!(mismatches, 0, "pooled results diverged from sequential");
    assert_eq!(stats.completed(), stream.len() as u64);
    assert_eq!(stats.queue_depth(), 0);
    assert_eq!(
        aggregated.selections(),
        stream.len() as u64,
        "every request makes exactly one selection"
    );
    // Each distinct plan key misses once pool-wide — summed over every
    // engine the pool owns — however many workers serve it.
    let plan_keys: std::collections::HashSet<(u64, usize)> = stream
        .iter()
        .map(|r| (corpus[r.matrix_index].sparsity_fingerprint(), r.iterations))
        .collect();
    assert_eq!(
        stats.router.unwrap_or_default().plan_misses + aggregated.plan_misses,
        plan_keys.len() as u64,
        "each distinct (fingerprint, iterations, policy) key misses exactly once pool-wide"
    );
    // The per-device engine counters sum to the aggregate.
    let device_sum = devices
        .iter()
        .fold(EngineStats::default(), |sum, (_, counters)| {
            sum.saturating_add(*counters)
        });
    assert_eq!(device_sum.selections(), aggregated.selections());
    assert_eq!(device_sum.plan_preparations, aggregated.plan_preparations);
    if fleet.is_some() {
        let active = devices
            .iter()
            .filter(|(_, counters)| counters.selections() > 0)
            .count();
        assert!(
            active > 1,
            "heterogeneous traffic must be placed on more than one device, got {active}"
        );
    }
    let kernel_agreement = kernel_agreements as f64 / stream.len().max(1) as f64;
    if options.families {
        println!(
            "\nfamily lane: {} inherited selections, {} class hits, kernel agreement \
             {:.1}% vs the from-scratch sequential replay",
            aggregated.inherited_selections,
            aggregated.class_hits,
            100.0 * kernel_agreement
        );
        assert!(
            aggregated.inherited_selections > 0,
            "family traffic with class reuse on must inherit at least one selection"
        );
        println!(
            "differential check: OK ({} requests, bit-identical on kernel agreement, \
             solver tolerance otherwise)",
            stream.len()
        );
    } else {
        println!(
            "\ndifferential check: OK ({} requests bit-identical)",
            stream.len()
        );
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if options.assert_speedup {
        if cpus >= 4 {
            assert!(
                speedup >= 2.0,
                "expected >= 2x pooled speedup on {cpus} CPUs, measured {speedup:.2}x"
            );
            println!("speedup check: OK ({speedup:.2}x on {cpus} CPUs)");
        } else {
            println!("speedup check: skipped ({cpus} CPU(s) available, need >= 4)");
        }
    }

    if let Some(path) = &options.out {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"bench\": \"loadtest_serving\",");
        let _ = writeln!(json, "  \"smoke\": {},", options.smoke);
        let _ = writeln!(json, "  \"requests\": {},", stream.len());
        let _ = writeln!(json, "  \"corpus_matrices\": {},", corpus.len());
        let _ = writeln!(json, "  \"shards\": {},", stats.shards.len());
        let _ = writeln!(
            json,
            "  \"fleet_devices\": {},",
            fleet.as_ref().map_or(1, Fleet::len)
        );
        let _ = writeln!(json, "  \"families\": {},", options.families);
        if options.families {
            let _ = writeln!(
                json,
                "  \"inherited_selections\": {},",
                aggregated.inherited_selections
            );
            let _ = writeln!(json, "  \"class_hits\": {},", aggregated.class_hits);
            let _ = writeln!(json, "  \"kernel_agreement\": {kernel_agreement:.4},");
        }
        let _ = writeln!(json, "  \"sequential_rps\": {sequential_rps:.0},");
        let _ = writeln!(json, "  \"pooled_rps\": {pooled_rps:.0},");
        let _ = writeln!(json, "  \"speedup\": {speedup:.2},");
        let _ = writeln!(
            json,
            "  \"plan_hit_rate\": {:.4},",
            aggregated.plan_hit_rate()
        );
        let _ = writeln!(
            json,
            "  \"plan_preparations\": {},",
            aggregated.plan_preparations
        );
        let _ = writeln!(json, "  \"devices\": [");
        for (index, (device, counters)) in devices.iter().enumerate() {
            let _ = writeln!(json, "    {{");
            let _ = writeln!(json, "      \"device\": \"{device}\",");
            let _ = writeln!(
                json,
                "      \"name\": \"{}\",",
                engine.fleet().device(*device).name()
            );
            let _ = writeln!(json, "      \"plan_hits\": {},", counters.plan_hits);
            let _ = writeln!(json, "      \"plan_misses\": {},", counters.plan_misses);
            let _ = writeln!(
                json,
                "      \"plan_preparations\": {}",
                counters.plan_preparations
            );
            let _ = writeln!(
                json,
                "    }}{}",
                if index + 1 < devices.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(json, "  \"differential_ok\": true");
        json.push_str("}\n");
        std::fs::write(path, &json).expect("writing the loadtest report");
        println!("wrote {path}");
    }
}

//! Concurrency stress test of the sharded [`ServingPool`].
//!
//! One pool is hammered from 8 submitter threads with heavily overlapping
//! fingerprints (a deterministic skewed traffic stream, so the same hot
//! matrices race across submitters constantly). The test then proves the two
//! properties the serving layer promises:
//!
//! 1. **determinism** — every pooled response is bit-identical to a
//!    sequential [`SeerEngine`] replay of the same request, whatever the
//!    thread/shard interleaving;
//! 2. **exact accounting** — the pool's counters sum exactly to the request
//!    count: no request is lost, none is double-counted.

use std::sync::Arc;

use seer::core::inference::{Selection, SelectionPolicy};
use seer::core::training::TrainingConfig;
use seer::gpu::Gpu;
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::traffic::{TrafficConfig, TrafficGenerator, TrafficRequest};
use seer::sparse::CsrMatrix;
use seer::{PoolConfig, SeerEngine, ServingPool, ServingRequest};

const SUBMITTERS: usize = 8;
const REQUESTS_PER_SUBMITTER: usize = 150;

fn trained_engine() -> (SeerEngine, Vec<Arc<CsrMatrix>>) {
    let entries = generate(&CollectionConfig::tiny());
    let (engine, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
    (engine, corpus)
}

/// The deterministic stream all submitters partition: skewed so fingerprints
/// overlap heavily both within and across submitter threads.
fn stress_stream(corpus_len: usize) -> Vec<TrafficRequest> {
    TrafficGenerator::new(&TrafficConfig::skewed(corpus_len, 0x57A255))
        .take(SUBMITTERS * REQUESTS_PER_SUBMITTER)
        .collect()
}

#[test]
fn eight_submitters_get_bit_identical_results_and_exact_counters() {
    let (engine, corpus) = trained_engine();
    let stream = stress_stream(corpus.len());
    let pool = Arc::new(ServingPool::from_engine(
        &engine,
        PoolConfig::with_shards(4),
    ));

    // Hammer the pool: 8 threads, each submitting its slice of the stream and
    // waiting for every response. Responses are collected with their global
    // stream position so the replay below compares request-for-request.
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|thread_index| {
            let pool = Arc::clone(&pool);
            let corpus: Vec<Arc<CsrMatrix>> = corpus.to_vec();
            let slice: Vec<TrafficRequest> = stream[thread_index * REQUESTS_PER_SUBMITTER
                ..(thread_index + 1) * REQUESTS_PER_SUBMITTER]
                .to_vec();
            std::thread::spawn(move || {
                slice
                    .iter()
                    .enumerate()
                    .map(|(offset, request)| {
                        let position = thread_index * REQUESTS_PER_SUBMITTER + offset;
                        let ticket = pool.submit(ServingRequest::select(
                            Arc::clone(&corpus[request.matrix_index]),
                            request.iterations,
                        ));
                        (position, ticket.wait().expect("healthy worker"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut responses: Vec<_> = submitters
        .into_iter()
        .flat_map(|handle| handle.join().expect("submitter thread"))
        .collect();
    responses.sort_by_key(|(position, _)| *position);
    assert_eq!(responses.len(), stream.len());

    // Property 1: bit-identical to a sequential replay on a fresh engine.
    let replay_engine = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    let sequential: Vec<Selection> = stream
        .iter()
        .map(|r| replay_engine.select(&corpus[r.matrix_index], r.iterations))
        .collect();
    for ((position, response), expected) in responses.iter().zip(&sequential) {
        assert_eq!(
            response.selection, *expected,
            "request {position} diverged from the sequential replay"
        );
    }

    // Property 2: counters sum exactly to the request count.
    let pool = Arc::into_inner(pool).expect("all submitters joined");
    let stats = pool.shutdown();
    let total = stream.len() as u64;
    assert_eq!(stats.submitted(), total, "no request lost at submission");
    assert_eq!(stats.completed(), total, "no request lost in serving");
    assert_eq!(stats.queue_depth(), 0);
    let engine_totals = stats.engine();
    assert_eq!(
        engine_totals.selections(),
        total,
        "hits + misses must account for every request exactly"
    );
    assert_eq!(engine_totals.misprediction_fallbacks, 0);

    // Per-shard accounting is exact too, and the one pool engine computed
    // each distinct (fingerprint, iterations) plan exactly once, however the
    // submitters raced on first contact: every other request replayed it.
    for shard in &stats.shards {
        assert_eq!(shard.queue_depth(), 0);
    }
    assert_eq!(
        stats.shards.iter().map(|s| s.completed).sum::<u64>(),
        total,
        "the shards partition the served requests"
    );
    let distinct_plans: std::collections::HashSet<(u64, usize)> = stream
        .iter()
        .map(|r| (corpus[r.matrix_index].content_fingerprint(), r.iterations))
        .collect();
    assert_eq!(
        stats.engine().plan_misses,
        distinct_plans.len() as u64,
        "each distinct plan computed exactly once across the whole pool"
    );
    assert_eq!(
        stats.engine().plan_hits,
        total - distinct_plans.len() as u64,
        "every other request replayed a cached plan"
    );
}

#[test]
fn mixed_policies_under_concurrency_stay_deterministic() {
    let (engine, corpus) = trained_engine();
    let stream = stress_stream(corpus.len());
    let pool = Arc::new(ServingPool::from_engine(
        &engine,
        PoolConfig::with_shards(3),
    ));
    let policies = [
        SelectionPolicy::Adaptive,
        SelectionPolicy::KnownOnly,
        SelectionPolicy::GatheredOnly,
    ];

    let submitters: Vec<_> = (0..4)
        .map(|thread_index| {
            let pool = Arc::clone(&pool);
            let corpus: Vec<Arc<CsrMatrix>> = corpus.to_vec();
            let slice: Vec<TrafficRequest> =
                stream[thread_index * 100..(thread_index + 1) * 100].to_vec();
            std::thread::spawn(move || {
                slice
                    .iter()
                    .enumerate()
                    .map(|(offset, request)| {
                        let policy = policies[(thread_index + offset) % policies.len()];
                        let response = pool
                            .submit(
                                ServingRequest::select(
                                    Arc::clone(&corpus[request.matrix_index]),
                                    request.iterations,
                                )
                                .with_policy(policy),
                            )
                            .wait()
                            .expect("healthy worker");
                        (request.matrix_index, request.iterations, policy, response)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let replay_engine = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    let mut served = 0u64;
    for handle in submitters {
        for (matrix_index, iterations, policy, response) in handle.join().expect("submitter thread")
        {
            served += 1;
            let expected =
                replay_engine.select_with_policy(&corpus[matrix_index], iterations, policy);
            assert_eq!(response.selection, expected);
        }
    }
    pool.drain();
    let stats = pool.stats();
    assert_eq!(stats.completed(), served);
    assert_eq!(stats.engine().selections(), served);
}

#[test]
fn tickets_can_be_polled_without_blocking_until_served() {
    let (engine, corpus) = trained_engine();
    let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(2));

    // Submit a burst, then poll every ticket without ever blocking: is_done
    // is a non-consuming peek, wait_timeout a bounded non-consuming wait,
    // and both leave the response for the final wait().
    let tickets: Vec<_> = corpus
        .iter()
        .take(10)
        .map(|matrix| pool.submit(ServingRequest::select(Arc::clone(matrix), 19)))
        .collect();

    let mut pending: Vec<(usize, seer::core::serving::Ticket)> =
        tickets.into_iter().enumerate().collect();
    let mut done: Vec<(usize, seer::core::serving::Ticket)> = Vec::new();
    let mut polls = 0u64;
    while !pending.is_empty() {
        polls += 1;
        let (finished, still_pending): (Vec<_>, Vec<_>) =
            pending.into_iter().partition(|(_, t)| t.is_done());
        done.extend(finished);
        pending = still_pending;
        std::thread::yield_now();
    }
    assert!(polls >= 1);
    assert_eq!(done.len(), 10);

    // Every polled-done ticket still yields its response, bit-identical to a
    // sequential replay.
    let replay = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    for (index, ticket) in done {
        assert!(ticket.is_done(), "is_done stays true once served");
        let response = ticket.wait().expect("healthy worker");
        assert_eq!(
            response.selection,
            replay.select_with_policy(&corpus[index], 19, SelectionPolicy::Adaptive)
        );
        assert!(response.result.is_none());
    }

    // wait_timeout: bounded waits that keep the ticket alive.
    let mut ticket = pool.submit(ServingRequest::select(Arc::clone(&corpus[0]), 1));
    let response = loop {
        let outcome = ticket.wait_timeout(std::time::Duration::from_millis(20));
        if let Some(r) = outcome.expect("healthy worker") {
            break r.clone();
        }
    };
    assert_eq!(
        response.selection,
        replay.select_with_policy(&corpus[0], 1, SelectionPolicy::Adaptive)
    );
    // The non-consuming wait left the response in place for wait().
    assert_eq!(ticket.wait().expect("healthy worker"), response);
    pool.shutdown();
}

#[test]
fn rate_helpers_never_divide_by_zero() {
    // A pool snapshot with no traffic and no elapsed time: every ratio the
    // stats expose must come back 0.0, never NaN or infinity.
    let empty = seer::PoolStats::default();
    assert_eq!(empty.throughput_per_sec(), 0.0);
    assert_eq!(empty.failure_rate(), 0.0);
    assert_eq!(empty.queue_depth(), 0);
    assert!(empty.devices().is_empty());
    assert_eq!(empty.engine(), seer::EngineStats::default());

    // The admission-control rates and counters: an untouched front door
    // reads zero everywhere, and its rate is 0.0 with a zero denominator.
    assert_eq!(empty.served(), 0);
    assert_eq!(empty.shed(), 0);
    assert_eq!(empty.expired(), 0);
    assert_eq!(empty.backpressure_waits(), 0);
    assert_eq!(empty.offered(), 0);
    assert_eq!(empty.shed_rate(), 0.0);
    assert!(empty.shed_rate().is_finite());
    assert_eq!(empty.admission.shed_total(), 0);
    assert_eq!(empty.admission.unticketed(), 0);

    // Empty latency histograms: every quantile is exactly zero — no NaN,
    // no panic — for every priority class and both distributions.
    for class in seer::Priority::ALL {
        for histogram in [
            empty.latency.queue_wait(class),
            empty.latency.end_to_end(class),
        ] {
            assert_eq!(histogram.count(), 0);
            assert_eq!(histogram.p50(), std::time::Duration::ZERO);
            assert_eq!(histogram.p99(), std::time::Duration::ZERO);
            assert_eq!(histogram.p999(), std::time::Duration::ZERO);
            assert_eq!(histogram.quantile(0.0), std::time::Duration::ZERO);
            assert_eq!(histogram.quantile(1.0), std::time::Duration::ZERO);
            assert_eq!(histogram.quantile(f64::NAN), std::time::Duration::ZERO);
        }
    }

    // The elastic-fleet rates: zero completions must yield 0.0, never NaN,
    // and the raw counters must read zero on an empty snapshot.
    assert_eq!(empty.device_failures(), 0);
    assert_eq!(empty.retried(), 0);
    assert_eq!(empty.migrations(), 0);
    assert_eq!(empty.retry_rate(), 0.0);
    assert!(empty.retry_rate().is_finite());
    assert_eq!(empty.migration_rate(), 0.0);
    assert!(empty.migration_rate().is_finite());

    // A device lane that never completed anything rates 0.0 too.
    let lane = seer::DevicePoolStats::default();
    assert_eq!(lane.failure_rate(), 0.0);
    assert!(lane.failure_rate().is_finite());
    assert_eq!(lane.queue_depth(), 0);

    // Engine-side rates on an untouched counter window behave the same.
    let stats = seer::EngineStats::default();
    assert_eq!(stats.plan_hit_rate(), 0.0);
    assert!(stats.plan_hit_rate().is_finite());

    // Delta windows (warm-phase stats minus a baseline snapshot) saturate
    // instead of wrapping, so a window rate can never divide by a negative
    // or wrapped denominator either.
    let window = stats.saturating_sub(seer::EngineStats {
        plan_hits: 7,
        ..Default::default()
    });
    assert_eq!(window.plan_hits, 0);
    assert_eq!(window.plan_hit_rate(), 0.0);
}

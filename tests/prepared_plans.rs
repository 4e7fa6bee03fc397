//! Regression tests for the prepared-execution-plan layer: the engine
//! materializes each `(matrix, kernel)` preparation exactly once on a plan
//! miss, replays it for free on hits, keeps the warm path bit-identical to
//! the streaming baseline, and bounds its resident footprint with the
//! byte-accounted eviction policy.

use std::sync::Arc;

use seer::core::engine::EngineWorkspace;
use seer::core::serving::{PoolConfig, ServingPool, ServingRequest};
use seer::core::training::TrainingConfig;
use seer::gpu::Gpu;
use seer::kernels::KernelId;
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::{generators, SplitMix64};
use seer::SeerEngine;

fn trained_engine() -> SeerEngine {
    let entries = generate(&CollectionConfig::tiny());
    let (engine, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    engine
}

#[test]
fn one_preparation_per_plan_miss_and_zero_per_hit() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0x9E11);
    let matrix = generators::power_law(600, 2.0, 128, &mut rng);
    let x = vec![1.0; matrix.cols()];
    let mut workspace = EngineWorkspace::new();

    // Cold execute: plan miss -> exactly one preparation.
    let _ = engine.execute_into(&matrix, &x, 19, &mut workspace);
    let stats = engine.stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_preparations, 1, "a miss prepares exactly once");

    // Warm executes: hits prepare nothing.
    for _ in 0..20 {
        let _ = engine.execute_into(&matrix, &x, 19, &mut workspace);
    }
    let stats = engine.stats();
    assert_eq!(stats.plan_hits, 20);
    assert_eq!(stats.plan_preparations, 1, "hits never re-prepare");

    // A different iteration count is a new selection plan but (same matrix,
    // same kernel) the same prepared plan: no new preparation.
    let _ = engine.execute_into(&matrix, &x, 7, &mut workspace);
    let stats = engine.stats();
    assert_eq!(stats.plan_misses, 2);
    assert_eq!(stats.plan_preparations, 1);

    // A regenerated bit-identical matrix value replays the cached plan.
    let mut rng2 = SplitMix64::new(0x9E11);
    let regenerated = generators::power_law(600, 2.0, 128, &mut rng2);
    let _ = engine.execute_into(&regenerated, &x, 19, &mut workspace);
    assert_eq!(engine.stats().plan_preparations, 1);
}

#[test]
fn warm_prepared_path_matches_streaming_bit_for_bit() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0xB17);
    // A spread of shapes so several kernels get selected.
    let matrices = vec![
        generators::power_law(500, 1.8, 200, &mut rng),
        generators::banded(700, 3, &mut rng),
        generators::skewed_rows(600, 2, 300, 0.02, &mut rng),
        generators::uniform_row_length(400, 9, &mut rng),
    ];
    let mut prepared_ws = EngineWorkspace::new();
    let mut streaming_ws = EngineWorkspace::new();
    for matrix in &matrices {
        let x: Vec<f64> = (0..matrix.cols()).map(|i| (i % 11) as f64 - 5.0).collect();
        let (prepared_sel, prepared_time) = engine.execute_into(matrix, &x, 19, &mut prepared_ws);
        let (streaming_sel, streaming_time) =
            engine.execute_streaming_into(matrix, &x, 19, &mut streaming_ws);
        assert_eq!(prepared_sel, streaming_sel);
        // The streaming call replays the plan cached by the prepared call,
        // so its modelled time drops the already-charged selection overhead.
        assert!(streaming_time <= prepared_time);
        for (a, b) in prepared_ws.result().iter().zip(streaming_ws.result()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn every_kernel_prepares_through_the_engine_cache() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0xCAFE);
    let matrix = generators::skewed_rows(400, 2, 200, 0.03, &mut rng);
    for (index, kernel) in KernelId::ALL.into_iter().enumerate() {
        let plan = engine.prepared_plan(&matrix, kernel);
        assert_eq!(plan.kernel(), kernel);
        assert_eq!(plan.sparsity_fingerprint(), matrix.sparsity_fingerprint());
        // One preparation per distinct (matrix, kernel); replay is free.
        assert_eq!(engine.stats().plan_preparations, index as u64 + 1);
        let _ = engine.prepared_plan(&matrix, kernel);
        assert_eq!(engine.stats().plan_preparations, index as u64 + 1);
    }
    assert_eq!(engine.cached_prepared_plans(), KernelId::ALL.len());
    // Exactly one profiling pass fed all eight preparations.
    assert_eq!(engine.stats().profile_passes, 1);
}

#[test]
fn eviction_counters_account_resident_bytes() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0xE41C);
    let a = generators::power_law(800, 2.0, 100, &mut rng);
    let b = generators::power_law(900, 2.0, 120, &mut rng);
    let plan_a = engine.prepared_plan(&a, KernelId::CsrMergePath);
    let plan_b = engine.prepared_plan(&b, KernelId::CsrMergePath);
    let stats = engine.stats();
    assert_eq!(
        stats.resident_plan_bytes,
        (plan_a.heap_bytes() + plan_b.heap_bytes()) as u64
    );
    assert_eq!(stats.cache_evictions, 0);

    // Budget below the pair: the LRU (plan_a) is evicted.
    engine.set_prepared_budget_bytes(plan_b.heap_bytes());
    let stats = engine.stats();
    assert_eq!(stats.cache_evictions, 1);
    assert_eq!(stats.resident_plan_bytes, plan_b.heap_bytes() as u64);
    assert_eq!(engine.cached_prepared_plans(), 1);

    // Re-preparing the evicted plan counts as a new preparation.
    let _ = engine.prepared_plan(&a, KernelId::CsrMergePath);
    assert_eq!(engine.stats().plan_preparations, 3);
}

#[test]
fn tiny_byte_budget_forces_evictions_and_counts_repreparations() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0x71AD);
    // Matrices whose merge-path partition tables genuinely occupy bytes.
    let matrices: Vec<_> = (0..6)
        .map(|i| generators::power_law(500 + 60 * i, 2.0, 90 + 10 * i, &mut rng))
        .collect();
    let plan_bytes: Vec<usize> = matrices
        .iter()
        .map(|m| {
            let bytes = engine.prepared_plan(m, KernelId::CsrMergePath).heap_bytes();
            assert!(bytes > 0, "merge-path plans materialize bytes");
            bytes
        })
        .collect();
    engine.clear_caches();

    // A budget smaller than any single plan: every insertion immediately
    // displaces the previous resident, so the cache holds exactly the most
    // recent (oversized) plan at all times.
    engine.set_prepared_budget_bytes(1);
    let rounds = 4;
    for _ in 0..rounds {
        for (matrix, &bytes) in matrices.iter().zip(&plan_bytes) {
            let plan = engine.prepared_plan(matrix, KernelId::CsrMergePath);
            assert_eq!(plan.heap_bytes(), bytes);
            let stats = engine.stats();
            // Consistency under continuous eviction: exactly the newest
            // plan is resident, and the gauge tracks it precisely.
            assert_eq!(engine.cached_prepared_plans(), 1);
            assert_eq!(stats.resident_plan_bytes, bytes as u64);
        }
    }
    let stats = engine.stats();
    let total = (rounds * matrices.len()) as u64;
    // Every request after the very first displaced a resident plan...
    assert_eq!(stats.cache_evictions, total - 1);
    // ...and every displaced plan had to be re-prepared on its next visit:
    // no hit was possible, so preparations equal requests.
    assert_eq!(stats.plan_preparations, total);

    // Widening the budget restores caching: one more preparation each, then
    // replays are free again.
    engine.set_prepared_budget_bytes(64 << 20);
    for matrix in &matrices {
        let _ = engine.prepared_plan(matrix, KernelId::CsrMergePath);
    }
    let after_refill = engine.stats();
    for matrix in &matrices {
        let _ = engine.prepared_plan(matrix, KernelId::CsrMergePath);
    }
    let stats = engine.stats();
    assert_eq!(stats.plan_preparations, after_refill.plan_preparations);
    assert_eq!(stats.cache_evictions, after_refill.cache_evictions);
    assert_eq!(
        stats.resident_plan_bytes,
        plan_bytes.iter().sum::<usize>() as u64
    );
    assert_eq!(engine.cached_prepared_plans(), matrices.len());
}

#[test]
fn clear_caches_resets_prepared_state() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0xC1EA);
    let matrix = generators::banded(500, 4, &mut rng);
    let _ = engine.prepared_plan(&matrix, KernelId::EllThreadMapped);
    assert!(engine.stats().resident_plan_bytes > 0);
    engine.clear_caches();
    let stats = engine.stats();
    assert_eq!(stats.plan_preparations, 0);
    assert_eq!(stats.cache_evictions, 0);
    assert_eq!(stats.resident_plan_bytes, 0);
    assert_eq!(engine.cached_prepared_plans(), 0);
}

#[test]
fn pool_shards_prepare_a_hot_matrix_once_pool_wide() {
    let engine = trained_engine();
    let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(3));
    let mut rng = SplitMix64::new(0xF00D);
    let matrix = Arc::new(generators::uniform_random(300, 300, 0.02, &mut rng));
    let x = Arc::new(vec![1.0; matrix.cols()]);
    let tickets: Vec<_> = (0..12)
        .map(|_| {
            pool.submit(ServingRequest::execute(
                Arc::clone(&matrix),
                Arc::clone(&x),
                19,
            ))
        })
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("healthy worker"))
        .collect();
    // One pool engine: the hot matrix is prepared exactly once pool-wide,
    // whichever shards serve it, and every response is bit-identical.
    let stats = pool.stats();
    assert_eq!(stats.engine().plan_preparations, 1);
    let first = responses[0].result.as_ref().unwrap();
    for response in &responses[1..] {
        let result = response.result.as_ref().unwrap();
        for (a, b) in result.iter().zip(first) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    pool.shutdown();
}

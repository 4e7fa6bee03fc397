//! Regression tests for the engine's single-pass profiling guarantee.
//!
//! A plan-cache **miss** may trigger at most one fused profiling pass for the
//! matrix (the pass feeds the kernel cost models and the feature collection
//! alike); a plan-cache **hit** — including repeat traffic presenting a
//! regenerated, bit-identical matrix value — triggers none. The engine's
//! `profile_passes` counter attributes passes precisely, and the global
//! `MatrixProfile::passes()` counter cross-checks it.
//!
//! The engine counter is engine-scoped and therefore exact even when other
//! test threads profile their own matrices concurrently; the one process-wide
//! cross-check is a lower bound for the same reason.

use seer::core::engine::EngineWorkspace;
use seer::core::training::TrainingConfig;
use seer::gpu::Gpu;
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::{generators, MatrixProfile, SplitMix64};
use seer::SeerEngine;

fn trained_engine() -> SeerEngine {
    let entries = generate(&CollectionConfig::tiny());
    let (engine, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    engine
}

#[test]
fn plan_cache_miss_profiles_once_and_hits_profile_zero_times() {
    let engine = trained_engine();
    // Fresh matrices no other test observes, so global pass deltas are exact.
    let mut rng = SplitMix64::new(0x9A55);
    let matrix = generators::power_law(700, 2.0, 96, &mut rng);
    let solver_matrix = generators::banded(900, 3, &mut rng);
    let x = vec![1.0; matrix.cols()];
    let mut workspace = EngineWorkspace::new();

    // --- Cold execute: plan miss -> exactly one profiling pass. ---
    let global_before = MatrixProfile::passes();
    let _ = engine.execute_into(&matrix, &x, 19, &mut workspace);
    assert_eq!(engine.stats().plan_misses, 1);
    assert_eq!(
        engine.stats().profile_passes,
        1,
        "a plan-cache miss performs exactly one profiling pass"
    );
    assert!(MatrixProfile::passes() > global_before);

    // --- Warm executes: plan hits -> zero additional passes. ---
    for _ in 0..10 {
        let _ = engine.execute_into(&matrix, &x, 19, &mut workspace);
    }
    assert_eq!(engine.stats().plan_hits, 10);
    assert_eq!(
        engine.stats().profile_passes,
        1,
        "plan-cache hits never re-profile"
    );
    // The matrix's own memo stayed warm the whole time: its cached profile
    // is the one the engine installed on the miss.
    assert!(matrix.cached_profile().is_some());

    // --- A regenerated bit-identical matrix value is repeat traffic: the
    // engine's fingerprint-keyed profile cache absorbs it without a pass. ---
    let mut rng2 = SplitMix64::new(0x9A55);
    let regenerated = generators::power_law(700, 2.0, 96, &mut rng2);
    assert!(regenerated.cached_profile().is_none(), "fresh value");
    let _ = engine.execute_into(&regenerated, &x, 19, &mut workspace);
    assert_eq!(engine.stats().plan_hits, 11);
    assert_eq!(
        engine.stats().profile_passes,
        1,
        "regenerated identical content must not re-profile"
    );
    // The engine answered from its fingerprint cache without ever touching
    // the regenerated value's own memo.
    assert!(regenerated.cached_profile().is_none());

    // --- A different plan key on the same matrix (new iteration count) is a
    // plan miss but a profile-cache hit: still no new pass. ---
    let _ = engine.execute_into(&matrix, &x, 7, &mut workspace);
    assert_eq!(engine.stats().plan_misses, 2);
    assert_eq!(engine.stats().profile_passes, 1);

    // --- A gathered-only selection on a second fresh matrix: the feature
    // collection shares the same single pass. ---
    let selection = engine.select_gathered_only(&solver_matrix, 19);
    assert!(selection.used_gathered);
    assert_eq!(
        engine.stats().profile_passes,
        2,
        "feature collection rides the one fused pass"
    );

    // --- clear_caches resets the counter with the maps. ---
    engine.clear_caches();
    assert_eq!(engine.stats().profile_passes, 0);
}

#[test]
fn execute_into_matches_allocating_execute() {
    let engine = trained_engine();
    let mut rng = SplitMix64::new(0xBEEF);
    let matrix = generators::skewed_rows(800, 2, 300, 0.02, &mut rng);
    let x: Vec<f64> = (0..matrix.cols()).map(|i| (i % 9) as f64 - 4.0).collect();

    let outcome = engine.execute(&matrix, &x, 19);
    let mut workspace = EngineWorkspace::new();
    let (selection, total_time) = engine.execute_into(&matrix, &x, 19, &mut workspace);

    // The second call replays the plan, so it charges no selection overhead;
    // everything else is bit-identical.
    assert_eq!(selection, outcome.selection);
    assert_eq!(workspace.result(), outcome.result.as_slice());
    assert_eq!(
        outcome.total_time,
        selection.overhead() + total_time,
        "replay charges kernel time only"
    );

    // take_result hands the buffer out and the workspace regrows next call.
    let taken = workspace.take_result();
    assert_eq!(taken, outcome.result);
    assert!(workspace.result().is_empty());
    let (_, _) = engine.execute_into(&matrix, &x, 19, &mut workspace);
    assert_eq!(workspace.result(), outcome.result.as_slice());
}

#[test]
fn pool_shards_attribute_profile_passes_to_their_own_engines() {
    use seer::core::serving::{PoolConfig, ServingPool, ServingRequest};
    use std::sync::Arc;

    let engine = trained_engine();
    let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(2));
    let mut rng = SplitMix64::new(0xF00D);
    let matrix = Arc::new(generators::uniform_random(300, 300, 0.02, &mut rng));
    let x = Arc::new(vec![1.0; matrix.cols()]);
    for _ in 0..8 {
        let _ = pool.submit(ServingRequest::execute(
            Arc::clone(&matrix),
            Arc::clone(&x),
            19,
        ));
    }
    pool.drain();
    let stats = pool.stats();
    // The pool engine did all the selection work: one plan miss, one
    // profiling pass, seven replays with zero passes.
    assert_eq!(stats.engine().plan_misses, 1);
    assert_eq!(stats.engine().plan_hits, 7);
    assert_eq!(
        stats.engine().profile_passes,
        1,
        "the pool profiles a hot matrix exactly once pool-wide"
    );
    pool.shutdown();
}

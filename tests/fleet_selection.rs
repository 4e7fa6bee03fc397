//! Integration tests of the heterogeneous device fleet: (kernel, device)
//! selection, fleet placement in the serving pool, pool-wide exactly-once
//! plan preparation, and per-device stats consistency.
//!
//! The single-device world is pinned elsewhere (`tests/selection_golden.rs`
//! must pass unchanged, `tests/kernel_differential.rs` is device-agnostic);
//! these tests cover what only exists once a fleet has more than one device.

use std::collections::HashSet;
use std::sync::Arc;

use seer::core::serving::{PoolConfig, ServingPool, ServingRequest};
use seer::core::training::TrainingConfig;
use seer::gpu::{DeviceId, Fleet, Gpu};
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::traffic::{TrafficConfig, TrafficGenerator};
use seer::sparse::{generators, CsrMatrix, SplitMix64};
use seer::{RecalibrationConfig, SeerEngine};

/// One trained model set, shared by every engine/pool in this file.
fn trained_models() -> (SeerEngine, Vec<seer::sparse::collection::DatasetEntry>) {
    let entries = generate(&CollectionConfig::tiny());
    let (engine, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    (engine, entries)
}

/// A small, skew-heavy matrix: launch/imbalance-bound, the regime where a
/// low-overhead device wins.
fn skew_heavy(rng: &mut SplitMix64) -> CsrMatrix {
    generators::skewed_rows(300, 1, 180, 0.01, rng)
}

/// A large uniform matrix: bandwidth-bound, the regime where the flagship
/// accelerator wins.
fn big_uniform(rng: &mut SplitMix64) -> CsrMatrix {
    generators::uniform_random(2_500, 2_500, 0.05, rng)
}

#[test]
fn skew_heavy_and_uniform_matrices_route_to_different_devices() {
    let (trained, _entries) = trained_models();
    let fleet = Fleet::reference_heterogeneous();
    let engine = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());

    let mut rng = SplitMix64::new(0xF1EE7);
    let skewed = skew_heavy(&mut rng);
    let uniform = big_uniform(&mut rng);

    let skew_selection = engine.select(&skewed, 19);
    let uniform_selection = engine.select(&uniform, 19);
    assert_ne!(
        skew_selection.device, uniform_selection.device,
        "structurally different matrices must place on different devices \
         (skew {} vs uniform {})",
        skew_selection.device, uniform_selection.device
    );
    // The bandwidth-bound matrix lands on the device with more memory
    // bandwidth than the launch-bound one's home.
    let bandwidth = |id: DeviceId| fleet.gpu(id).spec().memory_bandwidth_gbps;
    assert!(
        bandwidth(uniform_selection.device) > bandwidth(skew_selection.device),
        "uniform matrix should place on the higher-bandwidth device"
    );

    // Placement is a cached part of the plan: replays are bit-identical.
    assert_eq!(engine.select(&skewed, 19), skew_selection);
    assert_eq!(engine.select(&uniform, 19), uniform_selection);
    assert_eq!(engine.stats().plan_hits, 2);
}

#[test]
fn single_device_fleet_reproduces_the_legacy_engine_bit_for_bit() {
    let (trained, entries) = trained_models();
    let fleet_engine =
        SeerEngine::with_fleet(Fleet::single(trained.gpu_handle()), trained.models_handle());
    for entry in entries.iter().take(12) {
        for iterations in [1, 19] {
            let legacy = trained.select(&entry.matrix, iterations);
            let fleet = fleet_engine.select(&entry.matrix, iterations);
            assert_eq!(legacy, fleet);
            assert_eq!(fleet.device, DeviceId::DEFAULT);
        }
    }
    // Same counter trajectory, so not just the same answers but the same
    // amount of work: no hidden profiling or collection crept into the
    // single-device path.
    assert_eq!(trained.stats(), fleet_engine.stats());
}

#[test]
fn fleet_pool_prepares_each_fingerprint_device_kernel_triple_once() {
    let (trained, entries) = trained_models();
    let fleet = Fleet::reference_heterogeneous();
    let pool = ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2),
    );

    // A corpus whose slices win on different devices: tiny collection
    // members (launch-bound) plus big uniform matrices (bandwidth-bound).
    let mut rng = SplitMix64::new(0xC0FFEE);
    let mut corpus: Vec<Arc<CsrMatrix>> = entries
        .iter()
        .take(10)
        .map(|e| Arc::new(e.matrix.clone()))
        .collect();
    corpus.push(Arc::new(big_uniform(&mut rng)));
    corpus.push(Arc::new(skew_heavy(&mut rng)));
    let inputs: Vec<Arc<Vec<f64>>> = corpus
        .iter()
        .map(|m| Arc::new(vec![1.0; m.cols()]))
        .collect();

    // Replayable fleet traffic with repeats: plenty of chances to prepare a
    // plan twice if routing or caching were wrong.
    let stream: Vec<_> = TrafficGenerator::new(&TrafficConfig::fleet_mixed(corpus.len(), 0xF7EE7))
        .take(300)
        .collect();
    let tickets: Vec<_> = stream
        .iter()
        .map(|request| {
            pool.submit(ServingRequest::execute(
                Arc::clone(&corpus[request.matrix_index]),
                Arc::clone(&inputs[request.matrix_index]),
                request.iterations,
            ))
        })
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("healthy worker"))
        .collect();

    // Every (fingerprint, device, kernel) triple the fleet actually served...
    let triples: HashSet<(u64, DeviceId, seer::kernels::KernelId)> = stream
        .iter()
        .zip(&responses)
        .map(|(request, response)| {
            (
                corpus[request.matrix_index].content_fingerprint(),
                response.selection.device,
                response.selection.kernel,
            )
        })
        .collect();
    // ...was prepared exactly once pool-wide.
    let stats = pool.stats();
    assert_eq!(
        stats.engine().plan_preparations,
        triples.len() as u64,
        "each (fingerprint, device, kernel) plan must be prepared exactly once pool-wide"
    );

    // Requests were genuinely served on more than one device.
    let active: HashSet<DeviceId> = triples.iter().map(|(_, device, _)| *device).collect();
    assert!(
        active.len() > 1,
        "fleet traffic should exercise several devices, got {active:?}"
    );

    // And the pooled results are bit-identical to a sequential fleet engine
    // replay of the same stream.
    let reference = SeerEngine::with_fleet(fleet, trained.models_handle());
    for (request, response) in stream.iter().zip(&responses).take(60) {
        let outcome = reference.execute(
            &corpus[request.matrix_index],
            &inputs[request.matrix_index],
            request.iterations,
        );
        assert_eq!(response.selection, outcome.selection);
        let served = response.result.as_ref().expect("execute returns a product");
        assert_eq!(served.len(), outcome.result.len());
        for (a, b) in served.iter().zip(&outcome.result) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    pool.shutdown();
}

#[test]
fn per_device_pool_stats_sum_to_the_aggregates() {
    let (trained, entries) = trained_models();
    let fleet = Fleet::reference_heterogeneous();
    let pool = ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2),
    );
    let mut rng = SplitMix64::new(0xD1CE);
    let mut corpus: Vec<Arc<CsrMatrix>> = entries
        .iter()
        .take(6)
        .map(|e| Arc::new(e.matrix.clone()))
        .collect();
    corpus.push(Arc::new(big_uniform(&mut rng)));
    let tickets: Vec<_> = corpus
        .iter()
        .cycle()
        .take(40)
        .enumerate()
        .map(|(i, matrix)| pool.submit(ServingRequest::select(Arc::clone(matrix), 1 + (i % 3) * 9)))
        .collect();
    for ticket in tickets {
        let _ = ticket.wait().expect("healthy worker");
    }
    pool.drain();

    let stats = pool.stats();
    // The pool spawned its workers once: `shards` per fleet device.
    assert_eq!(stats.shards.len(), 2 * fleet.len());
    // The per-device engine counters are the pool engine's breakdown: its
    // device-attributable counters sum to the aggregate.
    let per_device: Vec<seer::EngineStats> = fleet
        .ids()
        .map(|device| stats.device_engine(device))
        .collect();
    let engine_sum = per_device
        .iter()
        .fold(seer::EngineStats::default(), |acc, device| {
            acc.saturating_add(*device)
        });
    let engine = stats.engine();
    assert_eq!(engine_sum.plan_hits, engine.plan_hits);
    assert_eq!(engine_sum.plan_misses, engine.plan_misses);
    assert_eq!(engine_sum.plan_preparations, engine.plan_preparations);
    assert_eq!(engine_sum.resident_plan_bytes, engine.resident_plan_bytes);
    assert_eq!(engine_sum.selections(), 40);
    // Shared work (profile passes, feature collections) is only in the
    // aggregate.
    assert!(per_device.iter().all(|device| device.profile_passes == 0));
    // A device outside the fleet reports nothing.
    let outside = DeviceId::new(fleet.len() as u16);
    assert_eq!(stats.device_engine(outside), seer::EngineStats::default());
    assert_eq!(stats.completed(), 40);
    assert_eq!(stats.queue_depth(), 0);
    pool.shutdown();
}

#[test]
fn recalibration_with_unity_factors_is_bit_identical_to_the_legacy_path() {
    let (trained, entries) = trained_models();
    let fleet = Fleet::reference_heterogeneous();
    let control = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    let recalibrated = SeerEngine::with_fleet(fleet, trained.models_handle());
    // Recalibration on, but with no observed drift and no exploration: the
    // correction factors stay exactly 1.0 and corrected ranking must be
    // bit-identical to the uncorrected fleet path — selections AND the
    // modelled times they charge.
    recalibrated.set_recalibration(Some(RecalibrationConfig::default()));

    let mut rng = SplitMix64::new(0xF1EE7);
    let mut corpus: Vec<CsrMatrix> = entries.iter().take(10).map(|e| e.matrix.clone()).collect();
    corpus.push(big_uniform(&mut rng));
    corpus.push(skew_heavy(&mut rng));
    for matrix in &corpus {
        let x = vec![1.0; matrix.cols()];
        for iterations in [1, 19, 19] {
            let expected = control.execute(matrix, &x, iterations);
            let actual = recalibrated.execute(matrix, &x, iterations);
            assert_eq!(actual.selection, expected.selection);
            assert_eq!(
                actual.total_time.as_nanos().to_bits(),
                expected.total_time.as_nanos().to_bits(),
                "unity correction factors must not change a single bit"
            );
        }
    }
    // The recalibrated engine did record observations — it just never had a
    // correction to apply.
    assert!(recalibrated.stats().timing_observations > 0);
    assert_eq!(recalibrated.stats().correction_drift_millilog, 0);
}

#[test]
fn corrected_fleet_placement_converges_off_a_drifting_device() {
    let (trained, _entries) = trained_models();
    let fleet = Fleet::reference_heterogeneous();
    let engine = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    engine.set_recalibration(Some(RecalibrationConfig {
        smoothing: 0.5,
        clamp_max: 16.0,
        ..RecalibrationConfig::default()
    }));

    let mut rng = SplitMix64::new(0xF1EE7);
    let matrix = big_uniform(&mut rng);
    let x = vec![1.0; matrix.cols()];
    let home = engine.execute(&matrix, &x, 19).selection.device;

    // A sustained 8x slowdown on the home device: far past any modelled gap
    // between fleet devices, so the corrected ranking must migrate, and the
    // EWMA must converge near the injected truth.
    fleet.set_true_timing_factor(home, 8.0);
    let mut migrated_after = None;
    for observation in 1..=25 {
        let selection = engine.execute(&matrix, &x, 19).selection;
        if selection.device != home {
            migrated_after = Some(observation);
            break;
        }
    }
    assert!(
        migrated_after.is_some(),
        "placement should migrate off the drifting device within 25 observations"
    );
    let kernel = engine.select(&matrix, 19).kernel;
    let factor = engine.correction_factor(home, kernel);
    assert!(
        factor > 2.0,
        "home factor should have converged toward the 8x truth, got {factor}"
    );
    assert!(engine.stats().correction_drift_millilog > 600);
}

//! Integration tests of online recalibration: observed execution timings
//! feed per-(device, kernel) EWMA correction factors back into selection and
//! fleet placement, so a device whose true timings drift away from the
//! analytical model loses traffic — and, with exploration enabled, wins it
//! back once the drift is lifted.
//!
//! The drift itself is injected through the fleet's true-timing perturbation
//! table ([`Fleet::set_true_timing_factor`]), which scales what an execution
//! *observes* without touching what the cost models *predict* — exactly the
//! silent-staleness failure mode recalibration exists to close.

use std::sync::Arc;

use seer::core::serving::{PoolConfig, ServingPool, ServingRequest};
use seer::core::training::TrainingConfig;
use seer::gpu::{DeviceId, DeviceRegistry, Fleet, Gpu, GpuSpec};
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::{generators, CsrMatrix, SplitMix64};
use seer::{ExplorationPolicy, RecalibrationConfig, SeerEngine};

/// One trained model set shared by every engine in this file.
fn trained_models() -> SeerEngine {
    let entries = generate(&CollectionConfig::tiny());
    let (engine, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    engine
}

/// A two-device fleet whose devices differ only in memory bandwidth: the
/// flagship wins every bandwidth-bound placement by roughly 2x, so a
/// modest injected slowdown is enough to flip the corrected ranking, and
/// the runner-up in every ranking is always the other device — exactly the
/// shape the migrate-off / migrate-back assertions need.
fn flagship_and_half_bandwidth() -> Fleet {
    let mut registry = DeviceRegistry::new();
    let flagship = GpuSpec::mi100();
    let mut detuned = GpuSpec::mi100();
    detuned.name = "MI100 (half bandwidth)".to_string();
    detuned.memory_bandwidth_gbps /= 2.0;
    registry.register(flagship).expect("valid flagship spec");
    registry.register(detuned).expect("valid de-tuned spec");
    Fleet::from_registry(registry).expect("two-device fleet")
}

/// A large bandwidth-bound matrix: the regime where the two devices of
/// [`flagship_and_half_bandwidth`] genuinely differ.
fn bandwidth_bound_matrix() -> CsrMatrix {
    let mut rng = SplitMix64::new(0xBEEF);
    generators::uniform_random(2_500, 2_500, 0.05, &mut rng)
}

#[test]
fn injected_slowdown_migrates_selection_off_and_back() {
    let trained = trained_models();
    let fleet = flagship_and_half_bandwidth();
    let engine = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    engine.set_recalibration(Some(RecalibrationConfig {
        smoothing: 0.5,
        exploration: Some(ExplorationPolicy {
            // Let the discredited runner-up always qualify for exploration:
            // migrating back is exactly the case where the runner's corrected
            // total looks far worse than the best.
            near_tie_fraction: f64::INFINITY,
            epsilon: 0.5,
            seed: 0x5EED,
        }),
        ..RecalibrationConfig::default()
    }));

    let matrix = bandwidth_bound_matrix();
    let x = vec![1.0; matrix.cols()];
    let home = engine.execute(&matrix, &x, 19).selection.device;
    let other = fleet
        .ids()
        .find(|device| *device != home)
        .expect("two devices");

    // Phase 1: the home device silently becomes 4x slower than modelled.
    // Greedy (non-explored) selections must migrate off within a bounded
    // number of observations.
    fleet.set_true_timing_factor(home, 4.0);
    let mut migrated_after = None;
    for observation in 1..=30 {
        let explored_before = engine.stats().explored_selections;
        let selection = engine.execute(&matrix, &x, 19).selection;
        let explored = engine.stats().explored_selections != explored_before;
        if !explored && selection.device == other {
            migrated_after = Some(observation);
            break;
        }
    }
    let migrated_after = migrated_after.expect("selection must migrate off the slowed device");
    assert!(
        migrated_after <= 30,
        "migration took {migrated_after} observations"
    );
    let kernel = engine.select(&matrix, 19).kernel;
    assert!(
        engine.correction_factor(home, kernel) > 1.5,
        "home correction factor should reflect the injected slowdown, got {}",
        engine.correction_factor(home, kernel)
    );
    let stats = engine.stats();
    assert!(stats.timing_observations > 0);
    assert!(stats.corrections_applied > 0);
    assert!(
        stats.correction_drift_millilog > 400,
        "drift gauge should flag the sustained miscalibration, got {}",
        stats.correction_drift_millilog
    );

    // Phase 2: the drift is lifted. Without exploration the home device
    // would never be re-observed and the selection would stay migrated
    // forever; epsilon-greedy revisits decay the stale factor until the
    // greedy choice recovers.
    fleet.clear_true_timing_factors();
    let mut recovered = false;
    for _ in 0..400 {
        let explored_before = engine.stats().explored_selections;
        let selection = engine.execute(&matrix, &x, 19).selection;
        let explored = engine.stats().explored_selections != explored_before;
        if !explored && selection.device == home {
            recovered = true;
            break;
        }
    }
    assert!(
        recovered,
        "exploration should migrate the selection back after the drift lifts"
    );
    assert!(engine.stats().explored_selections > 0);
}

#[test]
fn ewma_converges_to_the_injected_factor() {
    let trained = trained_models();
    let fleet = Fleet::single(trained.gpu_handle());
    let engine = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    engine.set_recalibration(Some(RecalibrationConfig::default()));

    let matrix = bandwidth_bound_matrix();
    let x = vec![1.0; matrix.cols()];
    let kernel = engine.select(&matrix, 19).kernel;
    fleet.set_true_timing_factor(DeviceId::DEFAULT, 2.0);
    for _ in 0..40 {
        let _ = engine.execute(&matrix, &x, 19);
    }
    let factor = engine.correction_factor(DeviceId::DEFAULT, kernel);
    assert!(
        (factor - 2.0).abs() < 0.05,
        "factor should converge to the injected 2x, got {factor}"
    );
    // Lifting the drift converges the factor back toward unity.
    fleet.clear_true_timing_factors();
    for _ in 0..40 {
        let _ = engine.execute(&matrix, &x, 19);
    }
    let factor = engine.correction_factor(DeviceId::DEFAULT, kernel);
    assert!(
        (factor - 1.0).abs() < 0.05,
        "factor should recover toward unity, got {factor}"
    );
}

#[test]
fn pool_reroutes_traffic_away_from_a_slowed_device() {
    let trained = trained_models();
    let fleet = flagship_and_half_bandwidth();
    let config = PoolConfig::with_shards(1).with_recalibration(Some(RecalibrationConfig {
        smoothing: 0.5,
        ..RecalibrationConfig::default()
    }));
    let pool = ServingPool::with_fleet(fleet.clone(), trained.models_handle(), config);

    let matrix = Arc::new(bandwidth_bound_matrix());
    let x = Arc::new(vec![1.0; matrix.cols()]);
    let serve = |iterations| {
        pool.submit(ServingRequest::execute(
            Arc::clone(&matrix),
            Arc::clone(&x),
            iterations,
        ))
        .wait()
        .expect("healthy worker")
    };

    // Phase 1: unperturbed traffic settles on one home device.
    let home = serve(19).selection.device;
    for _ in 0..4 {
        assert_eq!(serve(19).selection.device, home);
    }
    let other = fleet
        .ids()
        .find(|device| *device != home)
        .expect("two devices");

    // Phase 2: slow the home device 4x. Serving sequentially (each request
    // waits for the previous) lets every observation inform the next
    // placement through the pool-wide shared correction table.
    fleet.set_true_timing_factor(home, 4.0);
    let devices: Vec<DeviceId> = (0..20).map(|_| serve(19).selection.device).collect();
    assert!(
        devices[devices.len() - 5..].iter().all(|d| *d == other),
        "steady-state traffic should migrate to the healthy device, got {devices:?}"
    );

    let stats = pool.shutdown();
    assert_eq!(stats.engine().timing_observations, 25);
    assert!(stats.engine().corrections_applied > 0);
    // The engine placed traffic on both devices: the home device before
    // the slowdown, the healthy one after.
    let placed_on = |device: DeviceId| stats.device_engine(device).selections();
    assert!(
        placed_on(other) > 0,
        "the healthy device should have taken the re-placed traffic"
    );
    assert!(placed_on(home) > 0);
    assert_eq!(placed_on(home) + placed_on(other), 25);
}

#[test]
fn recalibration_off_preserves_legacy_selections_under_drift() {
    let trained = trained_models();

    // Control: an unperturbed fleet.
    let control_fleet = flagship_and_half_bandwidth();
    let control = SeerEngine::with_fleet(control_fleet, trained.models_handle());

    // Perturbed fleet, recalibration off (the default): the engine keeps
    // trusting its analytical model — this is the silent-staleness behaviour
    // the feature exists to fix, preserved bit-for-bit when it is disabled.
    let drifted_fleet = flagship_and_half_bandwidth();
    let drifted = SeerEngine::with_fleet(drifted_fleet.clone(), trained.models_handle());
    for device in drifted_fleet.ids() {
        drifted_fleet.set_true_timing_factor(device, 3.0);
    }

    let matrix = bandwidth_bound_matrix();
    let x = vec![1.0; matrix.cols()];
    for iterations in [1, 19, 19, 1] {
        let expected = control.select(&matrix, iterations);
        let actual = drifted.execute(&matrix, &x, iterations).selection;
        assert_eq!(actual, expected, "selection must ignore unobserved drift");
    }
    assert_eq!(drifted.stats().timing_observations, 0);
    assert_eq!(drifted.stats().correction_drift_millilog, 0);
    for device in drifted_fleet.ids() {
        let kernel = drifted.select(&matrix, 19).kernel;
        assert_eq!(drifted.correction_factor(device, kernel), 1.0);
    }
}

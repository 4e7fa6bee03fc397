//! Heterogeneous fleet walkthrough: train once, then let a fleet-aware
//! engine place each workload on the device where its modelled total time is
//! lowest, and serve a mixed stream through the device-aware pool.
//!
//! Run with `cargo run --example fleet_router --release`.

use std::sync::Arc;

use seer::core::serving::{PoolConfig, ServingPool, ServingRequest};
use seer::core::training::TrainingConfig;
use seer::core::SeerError;
use seer::gpu::Gpu;
use seer::sparse::collection::{generate, CollectionConfig, SizeScale};
use seer::sparse::{generators, SplitMix64};
use seer::{Fleet, SeerEngine};

fn main() -> Result<(), SeerError> {
    // 1. Train the three Seer models once, on the reference device.
    let collection = generate(&CollectionConfig {
        seed: 7,
        matrices_per_family: 4,
        scale: SizeScale::Tiny,
    });
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())?;

    // 2. Describe the fleet: four modelled devices spanning ~50x in memory
    //    bandwidth and ~4x in kernel-launch overhead.
    let fleet = Fleet::reference_heterogeneous();
    print!("{fleet}");

    // 3. A fleet-aware engine answers "which kernel, on which device".
    let engine = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
    let mut rng = SplitMix64::new(42);
    let small_skewed = generators::skewed_rows(300, 1, 150, 0.01, &mut rng);
    let big_uniform = generators::uniform_random(2_500, 2_500, 0.05, &mut rng);
    for (name, matrix) in [
        ("small skew-heavy", &small_skewed),
        ("large uniform", &big_uniform),
    ] {
        let selection = engine.select(matrix, 19);
        println!(
            "{name}: launch {} on {} ({})",
            selection.kernel,
            selection.device,
            fleet.device(selection.device).name()
        );
    }

    // 4. The pool selects each request once, at routing: the selection's
    //    device travels with the job, and whichever worker is least busy
    //    serves it (two workers per device, none pinned to one).
    let pool = ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2),
    );
    let corpus = [Arc::new(small_skewed), Arc::new(big_uniform)];
    let tickets: Vec<_> = (0..20)
        .map(|i| pool.submit(ServingRequest::select(Arc::clone(&corpus[i % 2]), 19)))
        .collect();
    for ticket in tickets {
        let _ = ticket.wait().expect("healthy worker");
    }
    let stats = pool.shutdown();
    println!(
        "\n{} requests served by {} workers; placements per device (selections):",
        stats.completed(),
        stats.shards.len()
    );
    for device in fleet.ids() {
        let placed = stats.device_engine(device).selections();
        println!(
            "  {device}: {placed:>3}   {}",
            if placed > 0 { "active" } else { "idle" }
        );
    }
    Ok(())
}

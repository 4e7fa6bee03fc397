//! Seer: predictive runtime kernel selection for irregular problems.
//!
//! This is the facade crate of the Seer reproduction (CGO 2024,
//! arXiv:2403.17017). It re-exports the public API of the workspace crates so
//! applications can depend on a single crate:
//!
//! * [`sparse`] — sparse formats, statistics, MatrixMarket I/O and the
//!   synthetic SuiteSparse-like collection,
//! * [`gpu`] — the analytical MI100-class GPU performance model,
//! * [`kernels`] — the eight SpMV kernel variants of the case study,
//! * [`ml`] — the CART decision tree, baselines, metrics and model export,
//! * [`core`] — the Seer abstraction itself: feature collection, GPU
//!   benchmarking, training, the runtime [`SeerEngine`] service and the
//!   sharded concurrent [`ServingPool`] front-end.
//!
//! Engines and pools are built over a [`Fleet`] of one or more modelled
//! devices: a multi-device fleet turns selection into `(kernel, device)`
//! placement and the pool into a device-aware router, while a single-device
//! fleet behaves exactly like the classic engine.
//!
//! # Quickstart
//!
//! Train once, then serve selections from a long-lived, thread-safe
//! [`SeerEngine`]. The engine memoizes feature collections and selection
//! plans per matrix (keyed by content fingerprint), so repeated and batched
//! requests on the same matrix pay the selection cost once:
//!
//! ```
//! use seer::SeerEngine;
//! use seer::core::training::TrainingConfig;
//! use seer::gpu::Gpu;
//! use seer::sparse::collection::{generate, CollectionConfig};
//!
//! # fn main() -> Result<(), seer::core::SeerError> {
//! let collection = generate(&CollectionConfig::tiny());
//! let (engine, outcome) =
//!     SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())?;
//! println!("selector accuracy: {:.0}%", outcome.accuracies.selector * 100.0);
//!
//! let matrix = &collection[0].matrix;
//! let selection = engine.select(matrix, 19);
//! println!("Seer would launch {} for a 19-iteration run", selection.kernel);
//!
//! // A second request on the same matrix is a plan-cache hit.
//! assert_eq!(engine.select(matrix, 19), selection);
//! assert_eq!(engine.stats().plan_hits, 1);
//!
//! // Batched selection shares the same cache.
//! let plans = engine.select_batch(&[(matrix, 1), (matrix, 19)]);
//! assert_eq!(plans[1], selection);
//! # Ok(())
//! # }
//! ```
//!
//! The runnable examples under `examples/` walk through the full case study:
//! `quickstart`, `spmv_case_study`, `iterative_solver`, `custom_workload` and
//! `explain_model`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use seer_core as core;
pub use seer_gpu as gpu;
pub use seer_kernels as kernels;
pub use seer_ml as ml;
pub use seer_sparse as sparse;

pub use seer_core::{
    AdmissionConfig, AdmissionPoolStats, EngineStats, ExplorationPolicy, HistogramSnapshot,
    LatencySnapshot, PoolConfig, PoolStats, Priority, RecalibrationConfig, RoutingConfig,
    RoutingPoolStats, SeerEngine, ServingError, ServingPool, ServingRequest, ServingResponse,
    ShardStats, ShedPolicy, ShedReason, SubmitOutcome,
};
pub use seer_gpu::{
    DeviceFailed, DeviceId, DeviceRegistry, DeviceStatus, Fleet, FleetHandle, MembershipError,
};

/// Version string of the Seer reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}

//! Prepared execution plans: materialized per-`(matrix, kernel)` auxiliary
//! structures for the warm SpMV path.
//!
//! Every kernel's modelled `preprocessing_time` describes work a real GPU
//! library performs **once** per matrix — merge-path partitioning, ELL
//! conversion, adaptive row binning, COO expansion — and then amortizes over
//! the workload's iterations. The streaming `compute_into` implementations
//! re-derive those structures on *every* call (one binary search per merge
//! segment, per-row slicing, …), which is exactly the algorithmic
//! preprocessing price the amortization argument says a warm serving path
//! should not pay.
//!
//! A [`PreparedPlan`] is that one-time preparation made explicit: built once
//! by [`SpmvKernel::prepare`](crate::SpmvKernel::prepare) on a plan-cache
//! miss, cached by the engine as `Arc<PreparedPlan>` keyed by
//! `(sparsity_fingerprint, device, KernelId)`, and consumed by
//! [`SpmvKernel::compute_prepared_into`](crate::SpmvKernel::compute_prepared_into)
//! — which must stay allocation-free and **bit-identical** to the streaming
//! path (per-row summation order is preserved by construction).
//!
//! Kernels whose schedule consumes the device-resident CSR arrays directly
//! (thread-, wavefront- and block-mapped CSR — the ones whose
//! `preprocessing_time` is zero) carry a [`PlanData::Direct`] plan: nothing to
//! materialize, and their prepared path is their streaming path.
//!
//! Two deliberate trade-offs: preparation runs on the plan **miss** (the
//! amortization bet — one-shot traffic pays a one-time O(nnz) build that
//! repeat traffic earns back many times over; the engine's byte budget
//! reclaims dead plans), and `CSR,MP` / `CSR,WO` each cache their own copy
//! of the (identical) partition table — plans are keyed per kernel, and the
//! rare matrix whose selection flips between the two under different
//! iteration counts costs one duplicate table rather than a cross-kernel
//! sharing layer.

use std::error::Error;
use std::fmt;

use seer_sparse::{CsrMatrix, EllSlab};

use crate::merge::MergeCoordinate;
use crate::registry::KernelId;

/// Why a [`PreparedPlan`] may not serve a given `(kernel, matrix)` replay.
///
/// Returned by [`PreparedPlan::validate_for`] (and the fallible
/// [`SpmvKernel::try_compute_prepared_into`](crate::SpmvKernel::try_compute_prepared_into));
/// the infallible prepared path panics with the same message. Each variant
/// names a distinct staleness mode, all checked in **release** builds —
/// silently computing with a stale ELL slab's old value bits is a
/// correctness bug, not a debug nicety.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMismatch {
    /// The plan was prepared for one kernel and replayed through another.
    Kernel {
        /// The kernel the plan was prepared for.
        plan: KernelId,
        /// The kernel the replay was attempted through.
        requested: KernelId,
    },
    /// The matrix's sparsity pattern differs from the one the plan's
    /// structures were derived from.
    Sparsity,
    /// The matrix's values were mutated after a values-embedding plan (the
    /// ELL slab) was built; replaying it would serve the old value bits.
    StaleValues,
}

impl fmt::Display for PlanMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanMismatch::Kernel { plan, requested } => {
                write!(f, "prepared plan for {plan} replayed through {requested}")
            }
            PlanMismatch::Sparsity => {
                f.write_str("prepared plan replayed against a different sparsity pattern")
            }
            PlanMismatch::StaleValues => {
                f.write_str("values-keyed prepared plan replayed after a value mutation")
            }
        }
    }
}

impl Error for PlanMismatch {}

/// The materialized auxiliary structure of one kernel on one matrix.
#[derive(Debug, Clone)]
pub(crate) enum PlanData {
    /// The kernel streams the device-resident CSR arrays directly; there is
    /// nothing to prepare (zero-preprocessing schedules).
    Direct,
    /// Merge-path partition table: `segments + 1` `(row, nnz)` coordinates,
    /// one per segment boundary, replacing the per-segment binary searches of
    /// the streaming walk.
    MergePath {
        /// Segment-boundary coordinates, ascending; `coords.len() - 1`
        /// segments.
        coords: Vec<MergeCoordinate>,
    },
    /// Adaptive-CSR row binning: each row's index in its size-class bin, the
    /// row-block table the real kernel's host preprocessing uploads.
    RowBins {
        /// Rows with at most `SMALL_ROW_LIMIT` nonzeros, ascending.
        small: Vec<usize>,
        /// Rows with `SMALL_ROW_LIMIT < len <= MEDIUM_ROW_LIMIT`, ascending.
        medium: Vec<usize>,
        /// Rows longer than `MEDIUM_ROW_LIMIT`, ascending.
        large: Vec<usize>,
    },
    /// COO coordinate expansion: the explicit per-nonzero row index stream.
    CooRows {
        /// `nnz` row indices in row-major order.
        rows: Vec<usize>,
    },
    /// Column-major padded ELL storage (the coalesced device layout).
    EllSlab {
        /// The padded slot-major arrays.
        slab: EllSlab,
    },
}

/// A cached, immutable execution plan for one `(matrix, kernel)` pair.
///
/// Built by [`SpmvKernel::prepare`](crate::SpmvKernel::prepare) on a
/// plan-cache miss and replayed by
/// [`SpmvKernel::compute_prepared_into`](crate::SpmvKernel::compute_prepared_into).
/// The plan records the *sparsity* fingerprint of the matrix it was built
/// from — every variant's structure is derived from the row offsets and
/// column indices alone — plus, for the one variant that embeds value bits
/// (the padded ELL slab), the values fingerprint. A value-only mutation
/// therefore leaves every structure-derived plan valid and invalidates
/// exactly the slab; a mismatched replay is caught in every build profile
/// (see [`PreparedPlan::validate_for`] and [`PlanMismatch`]), and
/// [`PreparedPlan::heap_bytes`] feeds the engine's byte-accounted cache
/// eviction.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    kernel: KernelId,
    sparsity: u64,
    values: Option<u64>,
    pub(crate) data: PlanData,
    heap_bytes: usize,
}

impl PreparedPlan {
    /// Wraps prepared data for `kernel` on `matrix`, recording the sparsity
    /// key and — only when the data embeds value bits — the values key.
    pub(crate) fn new(kernel: KernelId, matrix: &CsrMatrix, data: PlanData) -> Self {
        let values = matches!(data, PlanData::EllSlab { .. }).then(|| matrix.values_fingerprint());
        let heap_bytes = match &data {
            PlanData::Direct => 0,
            PlanData::MergePath { coords } => {
                coords.capacity() * std::mem::size_of::<MergeCoordinate>()
            }
            PlanData::RowBins {
                small,
                medium,
                large,
            } => {
                (small.capacity() + medium.capacity() + large.capacity())
                    * std::mem::size_of::<usize>()
            }
            PlanData::CooRows { rows } => rows.capacity() * std::mem::size_of::<usize>(),
            PlanData::EllSlab { slab } => slab.memory_footprint_bytes(),
        };
        Self {
            kernel,
            sparsity: matrix.sparsity_fingerprint(),
            values,
            data,
            heap_bytes,
        }
    }

    /// A plan for a kernel that consumes the device-resident CSR directly.
    pub(crate) fn direct(kernel: KernelId, matrix: &CsrMatrix) -> Self {
        Self::new(kernel, matrix, PlanData::Direct)
    }

    /// The kernel this plan was prepared for.
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// Sparsity fingerprint of the matrix this plan was built from.
    pub fn sparsity_fingerprint(&self) -> u64 {
        self.sparsity
    }

    /// Values fingerprint of the matrix this plan was built from, recorded
    /// only when the plan embeds value bits (`Some` exactly for the ELL
    /// slab). `None` means the plan is valid for *any* values over its
    /// sparsity pattern.
    pub fn values_fingerprint(&self) -> Option<u64> {
        self.values
    }

    /// Whether this plan is still valid for `matrix`'s current values.
    ///
    /// Always true for structure-only plans; for a values-embedding plan
    /// this compares the recorded values key against the matrix's, so a
    /// value mutation flips it to false and the engine rebuilds the slab
    /// (without re-profiling).
    pub fn values_current(&self, matrix: &CsrMatrix) -> bool {
        self.values
            .is_none_or(|recorded| recorded == matrix.values_fingerprint())
    }

    /// Heap bytes held by the materialized auxiliary structures (zero for
    /// direct plans). The engine's plan cache evicts against the sum of
    /// these.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Whether this plan carries a materialized structure (false for direct
    /// plans, whose kernels read the CSR arrays as they are).
    pub fn is_materialized(&self) -> bool {
        !matches!(self.data, PlanData::Direct)
    }

    /// Checks that `matrix` is a value this plan may serve through `kernel`,
    /// returning the first [`PlanMismatch`] found. The fingerprint reads are
    /// memoized, so the check is O(1) on warm matrices and runs in **every**
    /// build profile.
    ///
    /// The values check is the stale-plan footgun guard: mutating a matrix's
    /// values through [`CsrMatrix::update_values`] resets its values
    /// fingerprint, so replaying a values-embedding plan built before the
    /// mutation is reported here instead of silently serving stale bits.
    #[inline]
    pub fn validate_for(&self, kernel: KernelId, matrix: &CsrMatrix) -> Result<(), PlanMismatch> {
        if self.kernel != kernel {
            return Err(PlanMismatch::Kernel {
                plan: self.kernel,
                requested: kernel,
            });
        }
        if self.sparsity != matrix.sparsity_fingerprint() {
            return Err(PlanMismatch::Sparsity);
        }
        if !self.values_current(matrix) {
            return Err(PlanMismatch::StaleValues);
        }
        Ok(())
    }

    /// Panicking form of [`PreparedPlan::validate_for`], used by the
    /// infallible prepared execution path.
    #[inline]
    pub(crate) fn check_matches(&self, kernel: KernelId, matrix: &CsrMatrix) {
        if let Err(mismatch) = self.validate_for(kernel, matrix) {
            panic!("{mismatch}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_plan_has_no_heap_bytes() {
        let m = CsrMatrix::identity(8);
        let plan = PreparedPlan::direct(KernelId::CsrThreadMapped, &m);
        assert_eq!(plan.kernel(), KernelId::CsrThreadMapped);
        assert_eq!(plan.sparsity_fingerprint(), m.sparsity_fingerprint());
        assert_eq!(plan.values_fingerprint(), None);
        assert_eq!(plan.heap_bytes(), 0);
        assert!(!plan.is_materialized());
    }

    #[test]
    fn materialized_plans_account_their_bytes() {
        let m = CsrMatrix::identity(8);
        let rows = m.expand_row_indices();
        let expected = rows.capacity() * std::mem::size_of::<usize>();
        let plan = PreparedPlan::new(KernelId::CooWavefrontMapped, &m, PlanData::CooRows { rows });
        assert!(plan.is_materialized());
        assert_eq!(plan.heap_bytes(), expected);
        assert!(plan.heap_bytes() >= 8 * std::mem::size_of::<usize>());
    }

    #[test]
    fn structure_only_plans_survive_value_mutation_but_slabs_do_not() {
        let mut m = CsrMatrix::identity(8);
        let coo = PreparedPlan::new(
            KernelId::CooWavefrontMapped,
            &m,
            PlanData::CooRows {
                rows: m.expand_row_indices(),
            },
        );
        let slab = PreparedPlan::new(
            KernelId::EllThreadMapped,
            &m,
            PlanData::EllSlab {
                slab: EllSlab::from_csr(&m),
            },
        );
        assert!(coo.values_current(&m));
        assert!(slab.values_current(&m));
        m.update_values(&[2.0; 8]).unwrap();
        assert!(
            coo.values_current(&m),
            "structure-only plans never go stale"
        );
        assert!(!slab.values_current(&m), "the slab embeds the old values");
    }

    #[test]
    #[should_panic(expected = "values-keyed prepared plan replayed after a value mutation")]
    fn stale_slab_replay_is_rejected_in_every_build() {
        let mut m = CsrMatrix::identity(4);
        let slab = PreparedPlan::new(
            KernelId::EllThreadMapped,
            &m,
            PlanData::EllSlab {
                slab: EllSlab::from_csr(&m),
            },
        );
        m.update_values(&[3.0; 4]).unwrap();
        slab.check_matches(KernelId::EllThreadMapped, &m);
    }

    #[test]
    #[should_panic(expected = "replayed through")]
    fn kernel_mismatch_is_rejected() {
        let m = CsrMatrix::identity(4);
        let plan = PreparedPlan::direct(KernelId::CsrThreadMapped, &m);
        plan.check_matches(KernelId::CsrBlockMapped, &m);
    }

    #[test]
    fn validate_for_reports_each_mismatch_mode() {
        let mut m = CsrMatrix::identity(4);
        let slab = PreparedPlan::new(
            KernelId::EllThreadMapped,
            &m,
            PlanData::EllSlab {
                slab: EllSlab::from_csr(&m),
            },
        );
        assert_eq!(slab.validate_for(KernelId::EllThreadMapped, &m), Ok(()));
        assert_eq!(
            slab.validate_for(KernelId::CsrThreadMapped, &m),
            Err(PlanMismatch::Kernel {
                plan: KernelId::EllThreadMapped,
                requested: KernelId::CsrThreadMapped,
            })
        );
        let other = CsrMatrix::identity(5);
        assert_eq!(
            slab.validate_for(KernelId::EllThreadMapped, &other),
            Err(PlanMismatch::Sparsity)
        );
        m.update_values(&[3.0; 4]).unwrap();
        assert_eq!(
            slab.validate_for(KernelId::EllThreadMapped, &m),
            Err(PlanMismatch::StaleValues)
        );
        assert_eq!(
            PlanMismatch::StaleValues.to_string(),
            "values-keyed prepared plan replayed after a value mutation"
        );
        assert_eq!(
            PlanMismatch::Sparsity.to_string(),
            "prepared plan replayed against a different sparsity pattern"
        );
    }
}

//! CSR thread-mapped SpMV (`CSR,TM`).

use seer_gpu::{Gpu, KernelTiming, SimTime};
use seer_sparse::{CsrMatrix, Scalar};

use crate::common::{row_groups, CostParams};
use crate::registry::KernelId;
use crate::{ComputeScratch, LoadBalancing, MatrixProfile, SparseFormat, SpmvKernel};

/// One matrix row per GPU thread (Bell & Garland's "CSR scalar" kernel).
///
/// The simplest possible schedule: lane `i` of a wavefront walks row `i`'s
/// nonzeros sequentially. It has no reduction overhead and minimal bookkeeping
/// — unbeatable on matrices whose rows are short and uniformly sized — but a
/// single long row stalls the 63 sibling lanes of its wavefront, so
/// performance collapses on skewed inputs. That collapse is the canonical
/// motivation for runtime kernel selection.
#[derive(Debug, Clone, Default)]
pub struct CsrThreadMapped {
    params: CostParams,
}

impl CsrThreadMapped {
    /// Creates the kernel with the default cost calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the kernel with explicit cost parameters.
    pub fn with_params(params: CostParams) -> Self {
        Self { params }
    }
}

impl SpmvKernel for CsrThreadMapped {
    fn id(&self) -> KernelId {
        KernelId::CsrThreadMapped
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Csr
    }

    fn schedule(&self) -> LoadBalancing {
        LoadBalancing::ThreadMapped
    }

    fn preprocessing_time(
        &self,
        _gpu: &Gpu,
        _matrix: &CsrMatrix,
        _profile: &MatrixProfile,
    ) -> SimTime {
        // Consumes the device-resident CSR arrays directly.
        SimTime::ZERO
    }

    fn iteration_timing(
        &self,
        gpu: &Gpu,
        matrix: &CsrMatrix,
        profile: &MatrixProfile,
    ) -> KernelTiming {
        let p = &self.params;
        let wavefront = gpu.spec().wavefront_size;
        let mut launch = gpu.launch();
        launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);
        launch.set_streaming_efficiency(p.thread_mapped_streaming_efficiency(
            profile.avg_row_len,
            gpu.spec().cache_line_bytes as f64,
        ));
        let mut add_group = |max_len: usize, sum_len: usize| {
            let max_cycles = p.thread_prologue_cycles + max_len as f64 * p.cycles_per_nnz;
            let total_cycles =
                wavefront as f64 * p.thread_prologue_cycles + sum_len as f64 * p.cycles_per_nnz;
            let streamed =
                sum_len as u64 * p.csr_bytes_per_nnz() + wavefront as u64 * p.row_meta_bytes;
            launch.add_wavefront(
                max_cycles as u64,
                total_cycles as u64,
                streamed,
                sum_len as u64,
            );
        };
        if wavefront == MatrixProfile::WAVEFRONT_GROUP && profile.aggregated() {
            // The fused profile already carries the per-wavefront row groups.
            for &(max_len, sum_len) in profile.wavefront_groups.iter() {
                add_group(max_len as usize, sum_len as usize);
            }
        } else {
            for (max_len, sum_len) in row_groups(matrix, wavefront) {
                add_group(max_len, sum_len);
            }
        }
        launch.finish()
    }

    fn compute_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        _scratch: &mut ComputeScratch,
    ) {
        // One "thread" per row: identical to the sequential reference, so the
        // shared allocation-free core *is* this kernel's decomposition.
        matrix.spmv_into(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_sparse::{generators, SplitMix64};

    #[test]
    fn matches_reference_spmv() {
        let mut rng = SplitMix64::new(1);
        let m = generators::power_law(300, 2.0, 64, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let kernel = CsrThreadMapped::new();
        let y = kernel.compute(&m, &x);
        let reference = m.spmv(&x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn no_preprocessing() {
        let gpu = Gpu::default();
        let m = CsrMatrix::identity(100);
        assert_eq!(
            CsrThreadMapped::new().preprocessing_time(&gpu, &m, m.profile()),
            SimTime::ZERO
        );
    }

    #[test]
    fn skew_hurts_thread_mapping() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(2);
        // On a heavily skewed matrix the straggler rows dominate thread
        // mapping, while a balanced schedule shrugs them off.
        let skewed = generators::skewed_rows(20_000, 3, 8000, 0.003, &mut rng);
        let tm = CsrThreadMapped::new().iteration_time(&gpu, &skewed, skewed.profile());
        let balanced =
            crate::CsrWavefrontMapped::new().iteration_time(&gpu, &skewed, skewed.profile());
        assert!(
            tm > balanced * 2.0,
            "TM {} should be far slower than WM {} on skewed input",
            tm.as_millis(),
            balanced.as_millis()
        );
    }

    #[test]
    fn utilization_is_perfect_on_uniform_rows() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(3);
        let uniform = generators::uniform_row_length(2048, 8, &mut rng);
        let timing = CsrThreadMapped::new().iteration_timing(&gpu, &uniform, uniform.profile());
        assert!(timing.stats.simd_utilization > 0.8);
    }

    #[test]
    fn empty_matrix_costs_only_overhead() {
        let gpu = Gpu::default();
        let m = CsrMatrix::zeros(0, 0);
        let timing = CsrThreadMapped::new().iteration_timing(&gpu, &m, m.profile());
        assert_eq!(timing.total, timing.overhead);
    }

    #[test]
    fn prepared_plan_is_direct_and_bit_identical() {
        // No modelled preprocessing -> nothing to materialize: the prepared
        // path is the streaming path, byte-free in the plan cache.
        let mut rng = SplitMix64::new(4);
        let m = generators::power_law(400, 2.0, 64, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i % 5) as f64 - 2.0).collect();
        let kernel = CsrThreadMapped::new();
        let plan = kernel.prepare(&m, m.profile());
        assert!(!plan.is_materialized());
        assert_eq!(plan.heap_bytes(), 0);
        let streamed = kernel.compute(&m, &x);
        let mut prepared = vec![f64::NAN; m.rows()];
        kernel.compute_prepared_into(&plan, &m, &x, &mut prepared, &mut ComputeScratch::new());
        for (a, b) in prepared.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn measure_reports_iterations() {
        let gpu = Gpu::default();
        let m = CsrMatrix::identity(256);
        let profile = CsrThreadMapped::new().measure(&gpu, &m, m.profile(), 19);
        assert_eq!(profile.iterations, 19);
        assert_eq!(profile.kernel, KernelId::CsrThreadMapped);
        assert!(profile.total() >= profile.per_iteration * 19.0);
    }
}

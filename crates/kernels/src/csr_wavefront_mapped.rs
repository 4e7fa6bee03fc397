//! CSR wavefront-mapped SpMV (`CSR,WM`).

use seer_gpu::{Gpu, KernelTiming, SimTime};
use seer_sparse::{CsrMatrix, Scalar};

use crate::common::{ceil_log2, for_each_row_length, CostParams};
use crate::registry::KernelId;
use crate::{ComputeScratch, LoadBalancing, MatrixProfile, SparseFormat, SpmvKernel};

/// One matrix row per 64-lane wavefront (the "CSR vector" kernel).
///
/// All 64 lanes of a wavefront cooperate on a single row, striding across its
/// nonzeros and combining partial sums with a log-step shuffle reduction.
/// Long rows are digested 64 entries per step, so skew is far less painful
/// than for [`crate::CsrThreadMapped`]; the price is that short rows leave
/// most lanes idle and still pay the full reduction, so matrices with a small
/// average row length waste the machine.
#[derive(Debug, Clone, Default)]
pub struct CsrWavefrontMapped {
    params: CostParams,
}

impl CsrWavefrontMapped {
    /// Creates the kernel with the default cost calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the kernel with explicit cost parameters.
    pub fn with_params(params: CostParams) -> Self {
        Self { params }
    }
}

impl SpmvKernel for CsrWavefrontMapped {
    fn id(&self) -> KernelId {
        KernelId::CsrWavefrontMapped
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Csr
    }

    fn schedule(&self) -> LoadBalancing {
        LoadBalancing::WavefrontMapped
    }

    fn preprocessing_time(
        &self,
        _gpu: &Gpu,
        _matrix: &CsrMatrix,
        _profile: &MatrixProfile,
    ) -> SimTime {
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
        let reduction_steps = ceil_log2(wavefront) as f64;
        let mut launch = gpu.launch();
        launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);
        // Each row is one wavefront whose cost depends on its length alone,
        // so the `count` rows of one length are `count` identical
        // wavefronts: priced per distinct length from the profile's
        // histogram, bit-identical to pricing row by row.
        for_each_row_length(matrix, profile, |len, count| {
            let strides = len.div_ceil(wavefront) as f64;
            // Per-row fixed cost is higher than thread mapping: the row bounds
            // are fetched through the scalar unit and the result is written by
            // lane 0 after the reduction.
            let max_cycles = 2.0 * p.thread_prologue_cycles
                + strides * p.cycles_per_nnz
                + reduction_steps * p.reduction_cycles_per_step;
            // Useful lane work: each nonzero once, plus the reduction tree.
            let total_cycles = wavefront as f64 * p.thread_prologue_cycles
                + len as f64 * p.cycles_per_nnz
                + wavefront as f64 * p.reduction_cycles_per_step;
            let streamed = len as u64 * p.csr_bytes_per_nnz() + p.row_meta_bytes;
            launch.add_uniform_wavefronts(
                count,
                max_cycles as u64,
                total_cycles as u64,
                streamed,
                len as u64,
            );
        });
        launch.finish()
    }

    fn compute_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        scratch: &mut ComputeScratch,
    ) {
        assert_eq!(
            x.len(),
            matrix.cols(),
            "input vector length must equal matrix columns"
        );
        assert_eq!(
            y.len(),
            matrix.rows(),
            "output vector length must equal matrix rows"
        );
        let lanes = 64;
        let partial = scratch.lanes(lanes);
        for (row, out) in y.iter_mut().enumerate() {
            let (cols, vals) = matrix.row(row);
            partial.iter_mut().for_each(|p| *p = 0.0);
            // Lanes stride across the row, as the real kernel does.
            for (slot, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                partial[slot % lanes] += v * x[c];
            }
            // Log-step reduction mirrors the shuffle-based combine.
            let mut width = lanes;
            while width > 1 {
                width /= 2;
                for lane in 0..width {
                    partial[lane] += partial[lane + width];
                }
            }
            *out = partial[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrThreadMapped;
    use seer_sparse::{generators, SplitMix64};

    #[test]
    fn matches_reference_spmv() {
        let mut rng = SplitMix64::new(11);
        let m = generators::skewed_rows(200, 3, 150, 0.05, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| 0.25 * i as f64 - 10.0).collect();
        let y = CsrWavefrontMapped::new().compute(&m, &x);
        let reference = m.spmv(&x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn beats_thread_mapping_on_long_rows() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(12);
        // A few thousand rows of several thousand nonzeros each.
        let long_rows = generators::uniform_row_length(2048, 1500, &mut rng);
        let wm = CsrWavefrontMapped::new().iteration_time(&gpu, &long_rows, long_rows.profile());
        let tm = CsrThreadMapped::new().iteration_time(&gpu, &long_rows, long_rows.profile());
        assert!(
            wm < tm,
            "WM {} should beat TM {}",
            wm.as_millis(),
            tm.as_millis()
        );
    }

    #[test]
    fn loses_to_thread_mapping_on_short_rows() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(13);
        let short_rows = generators::uniform_row_length(250_000, 3, &mut rng);
        let wm = CsrWavefrontMapped::new().iteration_time(&gpu, &short_rows, short_rows.profile());
        let tm = CsrThreadMapped::new().iteration_time(&gpu, &short_rows, short_rows.profile());
        assert!(
            tm < wm,
            "TM {} should beat WM {}",
            tm.as_millis(),
            wm.as_millis()
        );
    }

    #[test]
    fn utilization_low_on_short_rows() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(14);
        let short_rows = generators::uniform_row_length(5000, 2, &mut rng);
        let timing =
            CsrWavefrontMapped::new().iteration_timing(&gpu, &short_rows, short_rows.profile());
        assert!(timing.stats.simd_utilization < 0.6);
    }

    #[test]
    fn no_preprocessing() {
        let gpu = Gpu::default();
        let m = CsrMatrix::identity(10);
        assert_eq!(
            CsrWavefrontMapped::new().preprocessing_time(&gpu, &m, m.profile()),
            SimTime::ZERO
        );
    }

    #[test]
    fn prepared_plan_is_direct_and_bit_identical() {
        let mut rng = SplitMix64::new(15);
        let m = generators::skewed_rows(300, 3, 150, 0.04, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| 0.25 * i as f64 - 10.0).collect();
        let kernel = CsrWavefrontMapped::new();
        let plan = kernel.prepare(&m, m.profile());
        assert!(!plan.is_materialized());
        let streamed = kernel.compute(&m, &x);
        let mut prepared = vec![f64::NAN; m.rows()];
        let mut scratch = ComputeScratch::new();
        kernel.compute_prepared_into(&plan, &m, &x, &mut prepared, &mut scratch);
        for (a, b) in prepared.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

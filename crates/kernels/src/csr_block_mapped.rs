//! CSR block-mapped SpMV (`CSR,BM`).

use seer_gpu::{Gpu, KernelTiming, SimTime};
use seer_sparse::{CsrMatrix, Scalar};

use crate::common::{ceil_log2, for_each_row_length, CostParams};
use crate::registry::KernelId;
use crate::{ComputeScratch, LoadBalancing, MatrixProfile, SparseFormat, SpmvKernel};

/// One matrix row per 256-thread workgroup.
///
/// An entire workgroup (four wavefronts on CDNA) cooperates on each row,
/// reducing partial sums through LDS. This is the schedule of choice for
/// matrices with extremely long rows — the per-row stride is 256 — but it
/// multiplies the per-row fixed overhead by four wavefronts, so it is the
/// worst option for matrices of short rows.
#[derive(Debug, Clone, Default)]
pub struct CsrBlockMapped {
    params: CostParams,
}

impl CsrBlockMapped {
    /// Threads per workgroup.
    const BLOCK: usize = 256;

    /// Creates the kernel with the default cost calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the kernel with explicit cost parameters.
    pub fn with_params(params: CostParams) -> Self {
        Self { params }
    }
}

impl SpmvKernel for CsrBlockMapped {
    fn id(&self) -> KernelId {
        KernelId::CsrBlockMapped
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Csr
    }

    fn schedule(&self) -> LoadBalancing {
        LoadBalancing::BlockMapped
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
        let wavefronts_per_block = Self::BLOCK / wavefront.max(1);
        // Intra-wavefront shuffle reduction plus an LDS combine across the block.
        let reduction_steps =
            ceil_log2(wavefront) as f64 + ceil_log2(wavefronts_per_block) as f64 + 1.0;
        let mut launch = gpu.launch();
        launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);
        // Each row is one block of identical wavefronts whose cost depends
        // on the row length alone, so the `count` rows of one length are
        // priced together from the profile's histogram, bit-identical to
        // pricing row by row.
        for_each_row_length(matrix, profile, |len, count| {
            let strides = len.div_ceil(Self::BLOCK) as f64;
            let max_cycles = p.thread_prologue_cycles
                + strides * p.cycles_per_nnz
                + reduction_steps * p.reduction_cycles_per_step;
            let per_wavefront_len = (len as u64).div_ceil(wavefronts_per_block as u64);
            let total_cycles = wavefront as f64 * p.thread_prologue_cycles
                + per_wavefront_len as f64 * p.cycles_per_nnz
                + wavefront as f64 * p.reduction_cycles_per_step;
            let streamed = per_wavefront_len * p.csr_bytes_per_nnz() + p.row_meta_bytes;
            launch.add_uniform_wavefronts(
                wavefronts_per_block * count,
                max_cycles as u64,
                total_cycles as u64,
                streamed,
                per_wavefront_len,
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
        let partial = scratch.lanes(Self::BLOCK);
        for (row, out) in y.iter_mut().enumerate() {
            let (cols, vals) = matrix.row(row);
            partial.iter_mut().for_each(|p| *p = 0.0);
            for (slot, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                partial[slot % Self::BLOCK] += v * x[c];
            }
            let mut width = Self::BLOCK;
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
    use crate::{CsrThreadMapped, CsrWavefrontMapped};
    use seer_sparse::{generators, SplitMix64};

    #[test]
    fn matches_reference_spmv() {
        let mut rng = SplitMix64::new(21);
        let m = generators::hybrid_mesh_graph(250, 3, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 13) % 5) as f64 - 2.0).collect();
        let y = CsrBlockMapped::new().compute(&m, &x);
        let reference = m.spmv(&x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn best_on_extremely_long_rows() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(22);
        let very_long = generators::uniform_row_length(600, 8000, &mut rng);
        let bm = CsrBlockMapped::new().iteration_time(&gpu, &very_long, very_long.profile());
        let wm = CsrWavefrontMapped::new().iteration_time(&gpu, &very_long, very_long.profile());
        let tm = CsrThreadMapped::new().iteration_time(&gpu, &very_long, very_long.profile());
        assert!(bm < tm);
        assert!(
            bm <= wm * 1.05,
            "BM {} vs WM {}",
            bm.as_millis(),
            wm.as_millis()
        );
    }

    #[test]
    fn worst_on_short_rows() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(23);
        let short = generators::uniform_row_length(50_000, 3, &mut rng);
        let bm = CsrBlockMapped::new().iteration_time(&gpu, &short, short.profile());
        let tm = CsrThreadMapped::new().iteration_time(&gpu, &short, short.profile());
        assert!(bm > tm * 2.0);
    }

    #[test]
    fn no_preprocessing() {
        let gpu = Gpu::default();
        let m = CsrMatrix::identity(4);
        assert_eq!(
            CsrBlockMapped::new().preprocessing_time(&gpu, &m, m.profile()),
            SimTime::ZERO
        );
    }

    #[test]
    fn prepared_plan_is_direct_and_bit_identical() {
        let mut rng = SplitMix64::new(24);
        let m = generators::uniform_row_length(128, 700, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| ((i * 13) % 5) as f64 - 2.0).collect();
        let kernel = CsrBlockMapped::new();
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

//! Adaptive-CSR / rocSPARSE-style SpMV (`CSR,A`).

use seer_gpu::{Gpu, KernelTiming, SimTime};
use seer_sparse::{CsrMatrix, Scalar};

use crate::common::{ceil_log2, for_each_row_length, CostParams};
use crate::plan::{PlanData, PreparedPlan};
use crate::registry::KernelId;
use crate::{ComputeScratch, LoadBalancing, MatrixProfile, SparseFormat, SpmvKernel};

/// Size classes the Adaptive-CSR preprocessing sorts rows into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RowBin {
    /// Rows short enough that several are packed per wavefront (CSR-stream).
    Small,
    /// Rows processed one per wavefront.
    Medium,
    /// Rows processed one per 256-thread workgroup.
    Large,
}

/// Row-bin assignment produced by the (sequential) preprocessing pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowBinning {
    pub small: Vec<usize>,
    pub medium: Vec<usize>,
    pub large: Vec<usize>,
}

impl RowBinning {
    /// Bins every row of `matrix` by its length, the way CSR-Adaptive's host
    /// preprocessing does.
    pub(crate) fn compute(matrix: &CsrMatrix) -> Self {
        let mut bins = RowBinning::default();
        for row in 0..matrix.rows() {
            match Self::classify(matrix.row_len(row)) {
                RowBin::Small => bins.small.push(row),
                RowBin::Medium => bins.medium.push(row),
                RowBin::Large => bins.large.push(row),
            }
        }
        bins
    }

    pub(crate) fn classify(row_len: usize) -> RowBin {
        if row_len <= CsrAdaptive::SMALL_ROW_LIMIT {
            RowBin::Small
        } else if row_len <= CsrAdaptive::MEDIUM_ROW_LIMIT {
            RowBin::Medium
        } else {
            RowBin::Large
        }
    }
}

/// Adaptive-CSR (Daga & Greathouse), the algorithm behind rocSPARSE's
/// general-purpose CSR SpMV.
///
/// A sequential host pass bins rows into small/medium/large classes; each bin
/// is then dispatched with the schedule that suits it (many rows per
/// wavefront, one row per wavefront, one row per workgroup). Per-iteration
/// performance is close to the best of the specialised kernels on almost any
/// matrix, but the binning pass plus the transfer of the row-block table is a
/// real cost that only pays off over multiple iterations — the amortization
/// behaviour Fig. 7 of the paper examines.
#[derive(Debug, Clone, Default)]
pub struct CsrAdaptive {
    params: CostParams,
}

impl CsrAdaptive {
    /// Rows with at most this many nonzeros are packed several per wavefront.
    pub(crate) const SMALL_ROW_LIMIT: usize = 64;
    /// Rows with at most this many nonzeros are processed one per wavefront.
    pub(crate) const MEDIUM_ROW_LIMIT: usize = 1024;
    /// Scalar host operations charged per row during binning.
    const BINNING_OPS_PER_ROW: f64 = 6.0;

    /// Creates the kernel with the default cost calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the kernel with explicit cost parameters.
    pub fn with_params(params: CostParams) -> Self {
        Self { params }
    }
}

impl SpmvKernel for CsrAdaptive {
    fn id(&self) -> KernelId {
        KernelId::CsrAdaptive
    }

    fn format(&self) -> SparseFormat {
        SparseFormat::Csr
    }

    fn schedule(&self) -> LoadBalancing {
        LoadBalancing::Adaptive
    }

    fn preprocessing_time(
        &self,
        gpu: &Gpu,
        matrix: &CsrMatrix,
        _profile: &MatrixProfile,
    ) -> SimTime {
        // Sequential binning over the row offsets, then upload of the
        // row-block table (one 8-byte descriptor per row).
        let binning = gpu
            .host()
            .sequential_pass_time(matrix.rows(), Self::BINNING_OPS_PER_ROW);
        let upload = gpu.host().h2d_transfer_time(8 * matrix.rows());
        binning + upload
    }

    fn iteration_timing(
        &self,
        gpu: &Gpu,
        matrix: &CsrMatrix,
        profile: &MatrixProfile,
    ) -> KernelTiming {
        let p = &self.params;
        let wavefront = gpu.spec().wavefront_size;
        let block = 4 * wavefront;

        let mut launch = gpu.launch();
        launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);

        // The bins the host pass would build, priced per distinct row length
        // from the profile's histogram: a medium or large row's wavefronts
        // depend on its length alone, so the `count` rows of one length are
        // priced together, bit-identical to pricing row by row; small rows
        // only tally their bin's totals.
        let mut small_rows = 0usize;
        let mut small_nnz = 0usize;
        for_each_row_length(matrix, profile, |len, count| {
            match RowBinning::classify(len) {
                RowBin::Small => {
                    small_rows += count;
                    small_nnz += len * count;
                }
                // Medium rows: one row per wavefront (CSR-vector style).
                RowBin::Medium => {
                    let strides = len.div_ceil(wavefront) as f64;
                    let max_cycles = p.thread_prologue_cycles
                        + strides * p.cycles_per_nnz
                        + ceil_log2(wavefront) as f64 * p.reduction_cycles_per_step;
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
                }
                // Large rows: one row per 256-thread workgroup (CSR-vectorL
                // style).
                RowBin::Large => {
                    let strides = len.div_ceil(block) as f64;
                    let max_cycles = p.thread_prologue_cycles
                        + strides * p.cycles_per_nnz
                        + (ceil_log2(block) as f64 + 1.0) * p.reduction_cycles_per_step;
                    let per_wavefront_len = (len as u64).div_ceil(4);
                    let total_cycles = wavefront as f64 * p.thread_prologue_cycles
                        + per_wavefront_len as f64 * p.cycles_per_nnz
                        + wavefront as f64 * p.reduction_cycles_per_step;
                    let streamed = per_wavefront_len * p.csr_bytes_per_nnz() + p.row_meta_bytes;
                    launch.add_uniform_wavefronts(
                        4 * count,
                        max_cycles as u64,
                        total_cycles as u64,
                        streamed,
                        per_wavefront_len,
                    );
                }
            }
        });

        // Small rows: CSR-stream packs ~WAVEFRONT nonzeros of consecutive rows
        // into each wavefront, so the work per wavefront is uniform regardless
        // of the individual row lengths.
        if small_rows > 0 {
            let work_items = small_nnz + small_rows;
            let wavefronts = work_items.div_ceil(wavefront).max(1);
            let per_lane = 1.0;
            let max_cycles = p.thread_prologue_cycles
                + per_lane * p.cycles_per_nnz
                + ceil_log2(wavefront) as f64 * p.reduction_cycles_per_step;
            let total_cycles = wavefront as f64 * max_cycles;
            let nnz_share = (small_nnz as u64).div_ceil(wavefronts as u64);
            let row_share = (small_rows as u64).div_ceil(wavefronts as u64);
            let streamed = nnz_share * p.csr_bytes_per_nnz() + row_share * p.row_meta_bytes;
            launch.add_uniform_wavefronts(
                wavefronts,
                max_cycles as u64,
                total_cycles as u64,
                streamed,
                nnz_share,
            );
        }

        // rocSPARSE's adaptive csrmv is a single dispatch driven by the
        // precomputed row-block table; the bin structure does not multiply the
        // launch overhead.
        launch.set_dispatches(1);
        launch.finish()
    }

    fn compute_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        _scratch: &mut ComputeScratch,
    ) {
        // Each row is reduced independently, so the bin-by-bin dispatch order
        // of the real kernel cannot change any row's value; the shared
        // row-walk core produces the identical result without materialising
        // the binning.
        matrix.spmv_into(x, y);
    }

    fn prepare(&self, matrix: &CsrMatrix, _profile: &MatrixProfile) -> PreparedPlan {
        // The host binning pass the preprocessing model charges for,
        // materialized as the row-block table.
        let bins = RowBinning::compute(matrix);
        PreparedPlan::new(
            self.id(),
            matrix,
            PlanData::RowBins {
                small: bins.small,
                medium: bins.medium,
                large: bins.large,
            },
        )
    }

    fn compute_prepared_into(
        &self,
        plan: &PreparedPlan,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        _scratch: &mut ComputeScratch,
    ) {
        plan.check_matches(self.id(), matrix);
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
        let PlanData::RowBins {
            small,
            medium,
            large,
        } = &plan.data
        else {
            unreachable!("CSR,A prepares row bins");
        };
        // Bin-by-bin dispatch, as the row-block table drives it. Every row
        // lives in exactly one bin, each row is reduced independently in CSR
        // entry order, so the result is bit-identical to the row-major walk.
        for bin in [small, medium, large] {
            for &row in bin {
                let (cols, vals) = matrix.row(row);
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * x[c];
                }
                y[row] = acc;
            }
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
        let mut rng = SplitMix64::new(61);
        let m = generators::skewed_rows(500, 4, 300, 0.05, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| (i % 23) as f64 * 0.5 - 5.0).collect();
        let y = CsrAdaptive::new().compute(&m, &x);
        let reference = m.spmv(&x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn binning_is_exhaustive_and_correct() {
        let mut rng = SplitMix64::new(62);
        let m = generators::skewed_rows(2000, 3, 2000, 0.01, &mut rng);
        let bins = RowBinning::compute(&m);
        assert_eq!(
            bins.small.len() + bins.medium.len() + bins.large.len(),
            m.rows()
        );
        for &r in &bins.small {
            assert!(m.row_len(r) <= CsrAdaptive::SMALL_ROW_LIMIT);
        }
        for &r in &bins.medium {
            let len = m.row_len(r);
            assert!(len > CsrAdaptive::SMALL_ROW_LIMIT && len <= CsrAdaptive::MEDIUM_ROW_LIMIT);
        }
        for &r in &bins.large {
            assert!(m.row_len(r) > CsrAdaptive::MEDIUM_ROW_LIMIT);
        }
    }

    #[test]
    fn preprocessing_scales_with_rows() {
        let gpu = Gpu::default();
        let small = CsrMatrix::identity(1_000);
        let large = CsrMatrix::identity(1_000_000);
        let kernel = CsrAdaptive::new();
        let t_small = kernel.preprocessing_time(&gpu, &small, small.profile());
        let t_large = kernel.preprocessing_time(&gpu, &large, large.profile());
        assert!(t_large > t_small * 10.0);
    }

    #[test]
    fn competitive_iteration_on_skewed_input() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(63);
        let skewed = generators::skewed_rows(30_000, 3, 6000, 0.002, &mut rng);
        let adaptive = CsrAdaptive::new().iteration_time(&gpu, &skewed, skewed.profile());
        let tm = CsrThreadMapped::new().iteration_time(&gpu, &skewed, skewed.profile());
        let wm = CsrWavefrontMapped::new().iteration_time(&gpu, &skewed, skewed.profile());
        assert!(adaptive < tm);
        assert!(
            adaptive <= wm * 1.02,
            "CSR,A {} vs CSR,WM {}",
            adaptive.as_millis(),
            wm.as_millis()
        );
    }

    #[test]
    fn preprocessing_amortises_over_iterations() {
        let gpu = Gpu::default();
        let mut rng = SplitMix64::new(64);
        let m = generators::skewed_rows(40_000, 4, 3000, 0.004, &mut rng);
        let adaptive = CsrAdaptive::new();
        let baseline = CsrThreadMapped::new();
        // Adaptive's total must eventually undercut a no-preprocessing kernel
        // whose per-iteration time is worse.
        let one_a = adaptive.measure(&gpu, &m, m.profile(), 1).total();
        let one_tm = baseline.measure(&gpu, &m, m.profile(), 1).total();
        let many_a = adaptive.measure(&gpu, &m, m.profile(), 50).total();
        let many_tm = baseline.measure(&gpu, &m, m.profile(), 50).total();
        assert!(
            one_a > one_tm * 0.5,
            "preprocessing should be visible at 1 iteration"
        );
        assert!(many_a < many_tm, "adaptive should win at 50 iterations");
    }

    #[test]
    fn prepared_bins_cover_every_row_and_stay_bit_identical() {
        let mut rng = SplitMix64::new(65);
        let m = generators::skewed_rows(1500, 3, 1300, 0.01, &mut rng);
        let x: Vec<f64> = (0..m.cols()).map(|i| 2.0 - (i % 13) as f64).collect();
        let kernel = CsrAdaptive::new();
        let plan = kernel.prepare(&m, m.profile());
        assert!(plan.is_materialized());
        let streamed = kernel.compute(&m, &x);
        // Poisoned output: every element must be overwritten by the bins.
        let mut prepared = vec![f64::NAN; m.rows()];
        kernel.compute_prepared_into(&plan, &m, &x, &mut prepared, &mut ComputeScratch::new());
        for (a, b) in prepared.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn classify_boundaries() {
        assert_eq!(RowBinning::classify(0), RowBin::Small);
        assert_eq!(
            RowBinning::classify(CsrAdaptive::SMALL_ROW_LIMIT),
            RowBin::Small
        );
        assert_eq!(
            RowBinning::classify(CsrAdaptive::SMALL_ROW_LIMIT + 1),
            RowBin::Medium
        );
        assert_eq!(
            RowBinning::classify(CsrAdaptive::MEDIUM_ROW_LIMIT),
            RowBin::Medium
        );
        assert_eq!(
            RowBinning::classify(CsrAdaptive::MEDIUM_ROW_LIMIT + 1),
            RowBin::Large
        );
    }
}

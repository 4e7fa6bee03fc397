//! Shared cost parameters and row-group helpers for the kernel models.
//!
//! Per-matrix access-pattern profiling lives in the fused one-pass
//! [`seer_sparse::MatrixProfile`], memoized on the matrix; the kernel models
//! receive it by reference instead of re-deriving it.

use seer_sparse::{CsrMatrix, MatrixProfile};

/// Microarchitectural cost constants shared by every kernel model.
///
/// The absolute values are calibrated to be *plausible* for a CDNA-class
/// device; what matters for Seer is that they are identical across kernels so
/// that relative comparisons are driven by the schedule and the data shape,
/// not by per-kernel fudge factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// SIMD cycles a lane spends per nonzero it processes (index load, value
    /// load issue, FMA, pointer bump).
    pub cycles_per_nnz: f64,
    /// Cycles per step of an intra-wavefront / intra-workgroup reduction.
    pub reduction_cycles_per_step: f64,
    /// Fixed cycles of per-thread prologue (offset reads, bounds checks).
    pub thread_prologue_cycles: f64,
    /// Cycles of a binary search step (used by work-oriented kernels).
    pub search_cycles_per_step: f64,
    /// Bytes of a column index as stored on the device (`int`).
    pub index_bytes: u64,
    /// Bytes of a matrix/vector value (`double`).
    pub value_bytes: u64,
    /// Per-row bookkeeping traffic: row offset read plus output write.
    pub row_meta_bytes: u64,
}

impl CostParams {
    /// The calibration used throughout the reproduction.
    pub const fn default_params() -> Self {
        Self {
            cycles_per_nnz: 4.0,
            reduction_cycles_per_step: 4.0,
            thread_prologue_cycles: 8.0,
            search_cycles_per_step: 6.0,
            index_bytes: 4,
            value_bytes: 8,
            row_meta_bytes: 12,
        }
    }

    /// Streamed bytes charged per stored nonzero in CSR-like kernels
    /// (column index + value).
    pub fn csr_bytes_per_nnz(&self) -> u64 {
        self.index_bytes + self.value_bytes
    }

    /// Streamed bytes charged per stored entry in COO kernels
    /// (row index + column index + value).
    pub fn coo_bytes_per_nnz(&self) -> u64 {
        2 * self.index_bytes + self.value_bytes
    }

    /// Coalescing efficiency of a schedule in which each lane walks its own
    /// row sequentially (CSR thread-mapping).
    ///
    /// Neighbouring lanes then read locations `avg_row_len` entries apart, so
    /// once rows are longer than a cache line most of each DRAM transaction is
    /// wasted. Short rows keep several consecutive rows within one line and
    /// coalesce well.
    pub fn thread_mapped_streaming_efficiency(
        &self,
        avg_row_len: f64,
        cache_line_bytes: f64,
    ) -> f64 {
        let entries_per_line = cache_line_bytes / (self.index_bytes + self.value_bytes) as f64;
        (entries_per_line / avg_row_len.max(1.0)).clamp(0.1, 1.0)
    }
}

impl Default for CostParams {
    fn default() -> Self {
        Self::default_params()
    }
}

/// Iterates over consecutive groups of `group` rows, yielding
/// `(max_row_len, sum_row_len)` per group.
///
/// Thread-mapped style kernels assign one row per lane, so a wavefront's cost
/// is governed by the longest row in its group while its useful work is the
/// group's total — exactly the two numbers this helper produces.
pub(crate) fn row_groups(
    matrix: &CsrMatrix,
    group: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let rows = matrix.rows();
    let group = group.max(1);
    (0..rows.div_ceil(group)).map(move |g| {
        let start = g * group;
        let end = ((g + 1) * group).min(rows);
        let mut max_len = 0;
        let mut sum_len = 0;
        for row in start..end {
            let len = matrix.row_len(row);
            max_len = max_len.max(len);
            sum_len += len;
        }
        (max_len, sum_len)
    })
}

/// Calls `price(len, count)` once per distinct row length of `matrix`, with
/// the number of rows of that length.
///
/// The pairs come from the profile's row-length histogram, so a cost model
/// whose per-row term depends on the row length alone prices a matrix in one
/// step per distinct length rather than one per row. A matrix too large for
/// the profile's `u32` aggregates is fed one row at a time with count 1, so
/// the same pricing body serves it. Feeding `count` identical rows through
/// [`seer_gpu::LaunchBuilder::add_uniform_wavefronts`] is exact, not an
/// approximation: every per-wavefront quantity is an integer, and the
/// builder asserts that its sums stay integers below 2^53.
pub(crate) fn for_each_row_length(
    matrix: &CsrMatrix,
    profile: &MatrixProfile,
    mut price: impl FnMut(usize, usize),
) {
    if profile.aggregated() {
        for &(len, count) in profile.row_length_histogram.iter() {
            price(len as usize, count as usize);
        }
    } else {
        for row in 0..matrix.rows() {
            price(matrix.row_len(row), 1);
        }
    }
}

/// Integer log2 rounded up, with `ceil_log2(0) == 0` and `ceil_log2(1) == 0`.
pub(crate) fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_sparse::{generators, SplitMix64};

    #[test]
    fn default_params_are_consistent() {
        let p = CostParams::default();
        assert_eq!(p.csr_bytes_per_nnz(), 12);
        assert_eq!(p.coo_bytes_per_nnz(), 16);
        assert!(p.cycles_per_nnz > 0.0);
    }

    #[test]
    fn thread_mapped_coalescing_degrades_with_row_length() {
        let p = CostParams::default();
        let short = p.thread_mapped_streaming_efficiency(2.0, 64.0);
        let long = p.thread_mapped_streaming_efficiency(200.0, 64.0);
        assert_eq!(short, 1.0);
        assert!(long < 0.2);
        assert!(long >= 0.1);
    }

    #[test]
    fn row_groups_cover_all_rows() {
        let mut rng = SplitMix64::new(6);
        let m = generators::power_law(257, 2.0, 32, &mut rng);
        let total: usize = row_groups(&m, 64).map(|(_, sum)| sum).sum();
        assert_eq!(total, m.nnz());
        assert_eq!(row_groups(&m, 64).count(), 257usize.div_ceil(64));
    }

    #[test]
    fn row_groups_max_is_at_least_mean() {
        let mut rng = SplitMix64::new(7);
        let m = generators::skewed_rows(300, 2, 64, 0.05, &mut rng);
        for (max, sum) in row_groups(&m, 64) {
            assert!(max * 64 >= sum);
        }
    }

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }
}

//! The fused one-pass matrix profile.
//!
//! Every consumer of per-matrix shape information — the eight kernel cost
//! models, the feature-collection kernels, the ELL conversion, the
//! structure-class index — used to run its own sweep over the row offsets
//! (and sometimes the column indices), so one cold kernel-selection
//! benchmark cost ~10 redundant traversals of the same arrays.
//! [`MatrixProfile`] computes the superset of everything those consumers need
//! in **one** traversal of `row_offsets`/`col_indices` and is memoized on
//! [`CsrMatrix`] behind a `OnceLock`, exactly like
//! [`CsrMatrix::content_fingerprint`]: the pass runs at most once per matrix
//! value, and cloning a matrix carries the cached profile along.
//!
//! The one pass yields:
//!
//! - the sampled gather profile (`x` footprint, gather locality, average row
//!   length) and the full [`RowStats`];
//! - the ELL padding ratio and the exact bandwidth;
//! - the per-wavefront row groups the thread-mapped cost model reads;
//! - the row-length histogram the length-only cost models (`CSR,WM`,
//!   `CSR,BM`, `CSR,A`) price from, so pricing a matrix on another device
//!   costs one step per distinct row length instead of one per row;
//! - the [`StructureSignature`], from the same locality samples plus their
//!   sampled bandwidth, so a profiled matrix never needs
//!   [`StructureSignature::probe`].
//!
//! The two aggregates are stored as exact-size boxed `(u32, u32)` slices:
//! the engine retains one profile per cached sparsity pattern, so their
//! width is paid per fingerprint. A matrix whose rows or stored entries
//! exceed `u32::MAX` records neither (see [`MatrixProfile::aggregated`]),
//! and its consumers walk its rows instead.
//!
//! Each quantity is accumulated with the same arithmetic (and the same
//! floating-point evaluation order) as the standalone derivation it replaces,
//! so the fused profile is bit-identical to the legacy per-consumer passes —
//! `tests/profile_equivalence.rs` pins that equivalence on the corpus and on
//! adversarial shapes.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::RowStatsAccumulator;
use crate::{CsrMatrix, RowStats, StructureSignature};

/// Number of fused profiling passes performed process-wide.
///
/// Purely observational: benchmarks and regression tests use deltas of this
/// counter to prove that a cold selection profiles a matrix exactly once and
/// that cached traffic never re-profiles.
static PROFILE_PASSES: AtomicU64 = AtomicU64::new(0);

/// Access-pattern and shape profile of a matrix, computed in a single fused
/// traversal and shared by every kernel cost model.
///
/// The first three fields keep the names (and the exact values) of the
/// original sampled profile so the kernel models read them unchanged; the
/// rest fold in the row statistics, the ELL padding ratio, the bandwidth,
/// the per-wavefront row groups, the row-length histogram and the structure
/// signature that the kernels, the feature collector and the class index
/// used to recompute for themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    /// Bytes of the dense `x` vector (`8 * cols`, clamped to one column).
    pub x_footprint_bytes: f64,
    /// Spatial locality of the column-index stream in `[0, 1]`; 1 means
    /// neighbouring nonzeros reference neighbouring columns (banded/stencil
    /// matrices), 0 means columns are scattered (graphs, random matrices).
    /// Estimated from at most [`MatrixProfile::LOCALITY_SAMPLES`] samples.
    pub gather_locality: f64,
    /// Average stored entries per row; used by adaptive bin sizing.
    pub avg_row_len: f64,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Number of stored entries.
    pub nnz: usize,
    /// Full row-length / row-density statistics, bit-identical to
    /// [`RowStats::compute`].
    pub row_stats: RowStats,
    /// Fraction of padding slots an ELL conversion would introduce, in
    /// `[0, 1]` (0 for matrices with no stored entries).
    pub ell_padding_ratio: f64,
    /// Matrix bandwidth: the maximum `|row - col|` over stored entries.
    pub bandwidth: usize,
    /// `(max_row_len, sum_row_len)` per consecutive group of
    /// [`MatrixProfile::WAVEFRONT_GROUP`] rows — the two numbers the
    /// thread-mapped schedule needs per wavefront. Empty unless
    /// [`MatrixProfile::aggregated`].
    pub wavefront_groups: Box<[(u32, u32)]>,
    /// `(row_len, rows)` for every distinct row length, ascending by length:
    /// how many rows have each length. Empty unless
    /// [`MatrixProfile::aggregated`].
    pub row_length_histogram: Box<[(u32, u32)]>,
    /// The quantized structure signature, equal to
    /// [`StructureSignature::probe`] of the same matrix.
    pub signature: StructureSignature,
}

impl MatrixProfile {
    /// Maximum number of nonzeros sampled when estimating locality.
    pub const LOCALITY_SAMPLES: usize = 4096;

    /// Row-group width of [`MatrixProfile::wavefront_groups`]: the wavefront
    /// size of the CDNA-class device model. Kernels running on a device with
    /// a different wavefront size fall back to a direct row-group scan.
    pub const WAVEFRONT_GROUP: usize = 64;

    /// Profiles `matrix` in one traversal of its row offsets and column
    /// indices.
    ///
    /// Prefer [`CsrMatrix::profile`], which memoizes the result on the
    /// matrix; this constructor always performs the pass (and bumps the
    /// process-wide pass counter).
    pub fn compute(matrix: &CsrMatrix) -> Self {
        PROFILE_PASSES.fetch_add(1, Ordering::Relaxed);
        let rows = matrix.rows();
        let cols = matrix.cols();
        let nnz = matrix.nnz();
        // The original sampled profile clamped both dimensions to 1 before
        // deriving ratios; keep the exact expressions so the fused values are
        // bit-identical.
        let rows_c = rows.max(1);
        let cols_c = cols.max(1);
        let row_offsets = matrix.row_offsets();
        let col_indices = matrix.col_indices();

        let step = if nnz == 0 {
            1
        } else {
            (nnz / Self::LOCALITY_SAMPLES).max(1)
        };
        let mut next_sample = 0usize;
        let mut sampled = 0usize;
        let mut distance_sum = 0.0f64;
        let mut sampled_bandwidth = 0usize;

        let mut stats_acc = RowStatsAccumulator::new();
        let mut bandwidth = 0usize;
        let aggregated = Self::fits_aggregates(rows, nnz);
        let mut wavefront_groups = Vec::with_capacity(if aggregated {
            rows.div_ceil(Self::WAVEFRONT_GROUP)
        } else {
            0
        });
        let mut group_max = 0usize;
        let mut group_sum = 0usize;
        let mut lengths = LengthCounts::new(if aggregated { nnz } else { 0 });

        for row in 0..rows {
            let start = row_offsets[row];
            let end = row_offsets[row + 1];
            let len = end - start;
            stats_acc.push(len);

            if aggregated {
                // Every length and group sum is at most `nnz`, so the
                // narrowing casts below are lossless.
                group_max = group_max.max(len);
                group_sum += len;
                if (row + 1) % Self::WAVEFRONT_GROUP == 0 {
                    wavefront_groups.push((group_max as u32, group_sum as u32));
                    group_max = 0;
                    group_sum = 0;
                }
                lengths.add(len);
            }

            for &col in &col_indices[start..end] {
                bandwidth = bandwidth.max(row.abs_diff(col));
            }

            // Locality samples are strided nonzero indices; every sample in
            // `start..end` belongs to this row, and samples are consumed in
            // ascending order, so this reproduces the standalone scan's
            // row-tracking exactly — and the signature probe's, whose
            // sampled bandwidth reads the same samples.
            while next_sample < end {
                debug_assert!(next_sample >= start);
                let col = col_indices[next_sample];
                sampled_bandwidth = sampled_bandwidth.max(row.abs_diff(col));
                let diag = (row as f64 / rows_c as f64) * cols_c as f64;
                let distance = (col as f64 - diag).abs() / cols_c as f64;
                distance_sum += distance;
                sampled += 1;
                next_sample += step;
            }
        }
        if aggregated && !rows.is_multiple_of(Self::WAVEFRONT_GROUP) {
            wavefront_groups.push((group_max as u32, group_sum as u32));
        }

        let gather_locality = if nnz == 0 {
            1.0
        } else {
            let mean_distance = if sampled == 0 {
                0.0
            } else {
                distance_sum / sampled as f64
            };
            (1.0 - 3.0 * mean_distance).clamp(0.0, 1.0)
        };

        let row_stats = stats_acc.finish(cols);
        let padded = row_stats.rows * row_stats.max_row_len;
        let ell_padding_ratio = if padded == 0 {
            0.0
        } else {
            1.0 - row_stats.nnz as f64 / padded as f64
        };
        let signature = StructureSignature::quantize(
            (rows, cols, nnz),
            row_stats.imbalance(),
            ell_padding_ratio,
            sampled_bandwidth,
            gather_locality,
        );

        Self {
            x_footprint_bytes: 8.0 * cols_c as f64,
            gather_locality,
            avg_row_len: nnz as f64 / rows_c as f64,
            rows,
            cols,
            nnz,
            row_stats,
            ell_padding_ratio,
            bandwidth,
            wavefront_groups: wavefront_groups.into_boxed_slice(),
            row_length_histogram: lengths.finish(row_stats.max_row_len),
            signature,
        }
    }

    /// Whether a matrix of `rows` rows and `nnz` stored entries fits the
    /// `u32` aggregates: every row length, group sum and row count is then
    /// at most `u32::MAX`.
    fn fits_aggregates(rows: usize, nnz: usize) -> bool {
        u32::try_from(rows).is_ok() && u32::try_from(nnz).is_ok()
    }

    /// Whether the pass recorded [`MatrixProfile::wavefront_groups`] and
    /// [`MatrixProfile::row_length_histogram`]. False only for a matrix
    /// whose rows or stored entries exceed `u32::MAX`; consumers then walk
    /// its rows one at a time.
    pub fn aggregated(&self) -> bool {
        Self::fits_aggregates(self.rows, self.nnz)
    }

    /// Length of the longest row.
    pub fn max_row_len(&self) -> usize {
        self.row_stats.max_row_len
    }

    /// Coefficient of variation of the row lengths (`stddev / mean`), the
    /// single-number load-imbalance proxy.
    pub fn imbalance(&self) -> f64 {
        self.row_stats.imbalance()
    }

    /// Number of fused profiling passes performed process-wide so far.
    pub fn passes() -> u64 {
        PROFILE_PASSES.load(Ordering::Relaxed)
    }
}

/// The signature probe samples exactly the profile's locality samples, which
/// is what makes the profile's signature equal the probe's.
const _: () = assert!(MatrixProfile::LOCALITY_SAMPLES == StructureSignature::SAMPLE_TARGET);

/// The row-length histogram under construction: a dense table of the
/// lengths below [`LengthCounts::DENSE_LENGTHS`], sized by the stored
/// entries (no row is longer), and the longer lengths, collected as they
/// come — each such row is at least that much work in the pass — and
/// sorted at the end.
struct LengthCounts {
    dense: Vec<u32>,
    long: Vec<u32>,
}

impl LengthCounts {
    const DENSE_LENGTHS: usize = 4096;

    /// Counts for a matrix of `nnz` stored entries that fits the `u32`
    /// aggregates.
    fn new(nnz: usize) -> Self {
        Self {
            dense: vec![0; nnz.min(Self::DENSE_LENGTHS - 1) + 1],
            long: Vec::new(),
        }
    }

    fn add(&mut self, len: usize) {
        match self.dense.get_mut(len) {
            Some(count) => *count += 1,
            None => self.long.push(len as u32),
        }
    }

    /// The exact-size `(row_len, rows)` histogram, ascending by length, of a
    /// matrix whose longest row has `max_len` entries.
    fn finish(mut self, max_len: usize) -> Box<[(u32, u32)]> {
        let short = &self.dense[..=max_len.min(self.dense.len() - 1)];
        self.long.sort_unstable();
        let long_runs = self.long.chunk_by(|a, b| a == b);
        let distinct = short.iter().filter(|&&count| count > 0).count() + long_runs.clone().count();
        let mut pairs = Vec::with_capacity(distinct);
        for (len, &count) in short.iter().enumerate() {
            if count > 0 {
                pairs.push((len as u32, count));
            }
        }
        pairs.extend(long_runs.map(|run| (run[0], run.len() as u32)));
        pairs.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, SplitMix64};

    #[test]
    fn profile_matches_standalone_row_stats() {
        let mut rng = SplitMix64::new(11);
        let m = generators::skewed_rows(500, 3, 200, 0.05, &mut rng);
        let profile = MatrixProfile::compute(&m);
        assert_eq!(profile.row_stats, RowStats::compute(&m));
        assert_eq!(profile.max_row_len(), profile.row_stats.max_row_len);
        assert_eq!(profile.imbalance(), profile.row_stats.imbalance());
        assert_eq!(profile.nnz, m.nnz());
    }

    #[test]
    fn banded_matrix_has_high_locality_and_small_bandwidth() {
        let mut rng = SplitMix64::new(3);
        let banded = generators::banded(2000, 3, &mut rng);
        let profile = MatrixProfile::compute(&banded);
        assert!(
            profile.gather_locality > 0.9,
            "locality {}",
            profile.gather_locality
        );
        assert!(profile.bandwidth <= 3);
    }

    #[test]
    fn random_matrix_has_low_locality() {
        let mut rng = SplitMix64::new(4);
        let random = generators::uniform_random(2000, 2000, 0.005, &mut rng);
        let profile = MatrixProfile::compute(&random);
        assert!(
            profile.gather_locality < 0.4,
            "locality {}",
            profile.gather_locality
        );
        assert!(profile.bandwidth > 100);
    }

    #[test]
    fn empty_matrix_profile_is_benign() {
        let profile = MatrixProfile::compute(&CsrMatrix::zeros(10, 10));
        assert_eq!(profile.gather_locality, 1.0);
        assert_eq!(profile.avg_row_len, 0.0);
        assert_eq!(profile.ell_padding_ratio, 0.0);
        assert_eq!(profile.bandwidth, 0);
        assert_eq!(profile.wavefront_groups[..], [(0, 0)]);

        let degenerate = MatrixProfile::compute(&CsrMatrix::zeros(0, 0));
        assert_eq!(degenerate.x_footprint_bytes, 8.0);
        assert!(degenerate.wavefront_groups.is_empty());
        assert_eq!(degenerate.row_stats, RowStats::default());
    }

    #[test]
    fn wavefront_groups_cover_all_rows() {
        let mut rng = SplitMix64::new(6);
        let m = generators::power_law(257, 2.0, 32, &mut rng);
        let profile = MatrixProfile::compute(&m);
        assert_eq!(
            profile.wavefront_groups.len(),
            257usize.div_ceil(MatrixProfile::WAVEFRONT_GROUP)
        );
        let total: usize = profile
            .wavefront_groups
            .iter()
            .map(|&(_, sum)| sum as usize)
            .sum();
        assert_eq!(total, m.nnz());
        for &(max, sum) in &profile.wavefront_groups {
            assert!(max as usize * MatrixProfile::WAVEFRONT_GROUP >= sum as usize);
        }
    }

    #[test]
    fn pass_counter_counts_computations() {
        let m = CsrMatrix::identity(64);
        let before = MatrixProfile::passes();
        let _ = MatrixProfile::compute(&m);
        let _ = MatrixProfile::compute(&m);
        assert!(MatrixProfile::passes() >= before + 2);
    }
}

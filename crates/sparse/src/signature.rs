//! Quantized structure-class signatures.
//!
//! The Seer engine's exact caches key on fingerprints, so a *fresh* matrix —
//! even one structurally indistinguishable from a thousand already-served
//! ones — pays the full cold selection path. A [`StructureSignature`]
//! collapses the sparsity pattern onto a handful of coarse buckets over the
//! same quantities the [`MatrixProfile`](crate::MatrixProfile) feeds the cost
//! models (size, row-length skew, ELL padding, bandwidth, gather locality),
//! so structurally-similar matrices — the same generator family at a nearby
//! seed, a tenant's near-duplicate operator — land in the same *class* and
//! can inherit a cached `(kernel, device)` selection instead of re-running
//! the cost-model sweep.
//!
//! Two properties matter:
//!
//! 1. **Cheap.** Once a matrix is profiled, its signature is a by-product
//!    of that pass ([`MatrixProfile::signature`](crate::MatrixProfile)), and
//!    [`CsrMatrix::structure_signature`] returns it at no cost. The
//!    standalone [`StructureSignature::probe`] stays for matrices with no
//!    profile — a class-reuse lookup, which must not trigger the full
//!    profile pass, and callers that never profile: one O(rows) walk of the
//!    row offsets plus a strided sample of at most
//!    [`StructureSignature::SAMPLE_TARGET`] column indices, so a class *hit*
//!    costs O(rows), not O(nnz).
//! 2. **Canonical.** The profile and the probe read the same row lengths
//!    and the same strided samples through the same arithmetic, so both
//!    derivations produce the identical signature and bucket boundaries are
//!    compared like-for-like at class-insert and class-lookup time
//!    (`tests/profile_equivalence.rs` pins the equality).
//!
//! The buckets are deliberately coarse — logarithmic in size, eighths for
//! the ratios — because the kernel-selection surface itself is coarse: the
//! paper's Figure 7 winners flip on order-of-magnitude shape changes, not on
//! percent-level noise. The differential gate in `tests/structure_class.rs`
//! pins the resulting agreement rate (≥95% on the corpus and its perturbed
//! variants).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::CsrMatrix;

/// Number of standalone signature probes performed process-wide.
///
/// Purely observational, like [`MatrixProfile::passes`](crate::MatrixProfile::passes):
/// benchmarks use deltas of it to prove that a profiled matrix never probes.
static PROBES: AtomicU64 = AtomicU64::new(0);

/// A quantized, hashable summary of a matrix's sparsity structure.
///
/// Obtained via [`CsrMatrix::structure_signature`] (the profile's by-product
/// or a memoized probe; survives value-only mutation) or directly through
/// [`StructureSignature::probe`]. Matrices with equal signatures form a
/// *structure class*: the engine assumes the same `(kernel, device)`
/// selection serves them equally well and lets class members inherit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureSignature {
    /// `floor(log2(rows + 1))`.
    pub rows_log2: u8,
    /// `floor(log2(cols + 1))`.
    pub cols_log2: u8,
    /// `floor(log2(nnz + 1))`.
    pub nnz_log2: u8,
    /// Row-length coefficient of variation (`stddev / mean`) in steps of
    /// 0.25, saturating at 31 (CV ≥ 7.75 — extreme skew).
    pub cv_bucket: u8,
    /// ELL padding ratio (`1 - nnz / (rows * max_row_len)`) in eighths,
    /// 0..=8.
    pub padding_bucket: u8,
    /// Sampled matrix bandwidth as a fraction of the column count, in
    /// eighths, 0..=8.
    pub bandwidth_bucket: u8,
    /// Sampled gather locality (same estimator as the profile's
    /// `gather_locality`) in eighths, 0..=8.
    pub locality_bucket: u8,
}

impl StructureSignature {
    /// Maximum number of column indices sampled by the probe; equal to
    /// `MatrixProfile::LOCALITY_SAMPLES`, so the probe reads exactly the
    /// profile's locality samples.
    pub const SAMPLE_TARGET: usize = 4096;

    /// Computes the signature with one walk of the row offsets and a strided
    /// sample of the column indices.
    ///
    /// Deterministic: the stride depends only on `nnz`, so the same matrix
    /// (or any matrix with the same structure) always probes to the same
    /// signature. Prefer [`CsrMatrix::structure_signature`], which answers
    /// from the matrix's profile when it has one and memoizes the result.
    pub fn probe(matrix: &CsrMatrix) -> Self {
        PROBES.fetch_add(1, Ordering::Relaxed);
        let rows = matrix.rows();
        let cols = matrix.cols();
        let nnz = matrix.nnz();
        let rows_c = rows.max(1);
        let cols_c = cols.max(1);
        let row_offsets = matrix.row_offsets();
        let col_indices = matrix.col_indices();

        let step = if nnz == 0 {
            1
        } else {
            (nnz / Self::SAMPLE_TARGET).max(1)
        };
        let mut next_sample = 0usize;
        let mut sampled = 0usize;
        let mut distance_sum = 0.0f64;
        let mut bandwidth = 0usize;

        let mut max_row_len = 0usize;
        let mut sum_sq = 0.0f64;
        for (row, window) in row_offsets.windows(2).enumerate() {
            let len = window[1] - window[0];
            max_row_len = max_row_len.max(len);
            sum_sq += (len * len) as f64;
            // Strided samples land in ascending order, so consuming every
            // sample below this row's end attributes each to its row without
            // a search — the same scheme as the profile's locality scan.
            while next_sample < window[1] {
                let col = col_indices[next_sample];
                bandwidth = bandwidth.max(row.abs_diff(col));
                let diag = (row as f64 / rows_c as f64) * cols_c as f64;
                distance_sum += (col as f64 - diag).abs() / cols_c as f64;
                sampled += 1;
                next_sample += step;
            }
        }

        let mean = nnz as f64 / rows_c as f64;
        let variance = (sum_sq / rows_c as f64 - mean * mean).max(0.0);
        let cv = if mean > 0.0 {
            variance.sqrt() / mean
        } else {
            0.0
        };

        let padded = rows * max_row_len;
        let padding_ratio = if padded == 0 {
            0.0
        } else {
            1.0 - nnz as f64 / padded as f64
        };

        let locality = if nnz == 0 {
            1.0
        } else {
            let mean_distance = if sampled == 0 {
                0.0
            } else {
                distance_sum / sampled as f64
            };
            (1.0 - 3.0 * mean_distance).clamp(0.0, 1.0)
        };

        Self::quantize((rows, cols, nnz), cv, padding_ratio, bandwidth, locality)
    }

    /// Buckets the measured shape: `(rows, cols, nnz)`, the row-length
    /// coefficient of variation, the ELL padding ratio, the sampled
    /// bandwidth and the gather locality. The profile pass and the probe
    /// both end here.
    pub(crate) fn quantize(
        (rows, cols, nnz): (usize, usize, usize),
        cv: f64,
        padding_ratio: f64,
        sampled_bandwidth: usize,
        locality: f64,
    ) -> Self {
        Self {
            rows_log2: (rows as u64 + 1).ilog2() as u8,
            cols_log2: (cols as u64 + 1).ilog2() as u8,
            nnz_log2: (nnz as u64 + 1).ilog2() as u8,
            cv_bucket: ((cv / 0.25) as u8).min(31),
            padding_bucket: eighths(padding_ratio),
            bandwidth_bucket: eighths(sampled_bandwidth as f64 / cols.max(1) as f64),
            locality_bucket: eighths(locality),
        }
    }

    /// Number of standalone probes performed process-wide so far.
    pub fn probes() -> u64 {
        PROBES.load(Ordering::Relaxed)
    }
}

/// Quantizes a ratio in `[0, 1]` onto 0..=8 (rounding to the nearest
/// eighth); out-of-range inputs saturate.
fn eighths(ratio: f64) -> u8 {
    ((ratio * 8.0).round().clamp(0.0, 8.0)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, SplitMix64};

    #[test]
    fn signature_is_deterministic_and_memoized() {
        let mut rng = SplitMix64::new(41);
        let m = generators::banded(800, 5, &mut rng);
        assert_eq!(StructureSignature::probe(&m), StructureSignature::probe(&m));
        assert_eq!(m.structure_signature(), StructureSignature::probe(&m));
    }

    #[test]
    fn same_family_nearby_seeds_share_a_class() {
        let mut a_rng = SplitMix64::new(100);
        let mut b_rng = SplitMix64::new(101);
        let a = generators::uniform_row_length(4000, 9, &mut a_rng);
        let b = generators::uniform_row_length(4000, 9, &mut b_rng);
        assert_eq!(a.structure_signature(), b.structure_signature());
    }

    #[test]
    fn different_shapes_land_in_different_classes() {
        let mut rng = SplitMix64::new(7);
        let banded = generators::banded(4000, 3, &mut rng);
        let random = generators::uniform_random(4000, 4000, 0.002, &mut rng);
        let skewed = generators::skewed_rows(4000, 3, 2000, 0.01, &mut rng);
        assert_ne!(banded.structure_signature(), random.structure_signature());
        assert_ne!(banded.structure_signature(), skewed.structure_signature());
        assert_ne!(random.structure_signature(), skewed.structure_signature());
    }

    #[test]
    fn signature_ignores_values() {
        let mut rng = SplitMix64::new(55);
        let mut m = generators::banded(600, 4, &mut rng);
        let before = m.structure_signature();
        let doubled: Vec<f64> = m.values().iter().map(|v| v * 2.0).collect();
        m.update_values(&doubled).unwrap();
        assert_eq!(m.structure_signature(), before);
    }

    #[test]
    fn degenerate_matrices_probe_cleanly() {
        let zero = CsrMatrix::zeros(0, 0);
        let sig = zero.structure_signature();
        assert_eq!(sig.rows_log2, 0);
        assert_eq!(sig.locality_bucket, 8);

        let empty = CsrMatrix::zeros(64, 64);
        let sig = empty.structure_signature();
        assert_eq!(sig.padding_bucket, 0);
        assert_eq!(sig.cv_bucket, 0);

        let eye = CsrMatrix::identity(1024);
        let sig = eye.structure_signature();
        assert_eq!(sig.bandwidth_bucket, 0);
        assert_eq!(sig.cv_bucket, 0);
        assert_eq!(sig.padding_bucket, 0);
    }

    #[test]
    fn locality_bucket_matches_the_profile_estimate() {
        // On matrices small enough that both estimators sample every nonzero
        // (nnz <= SAMPLE_TARGET), the locality estimate is identical to the
        // profile's, so the bucket is exactly the profile value quantized.
        let mut rng = SplitMix64::new(77);
        let m = generators::banded(500, 3, &mut rng);
        assert!(m.nnz() <= StructureSignature::SAMPLE_TARGET);
        let sig = m.structure_signature();
        assert_eq!(
            sig.locality_bucket,
            super::eighths(m.profile().gather_locality)
        );
        assert_eq!(
            sig.bandwidth_bucket,
            super::eighths(m.profile().bandwidth as f64 / m.cols().max(1) as f64)
        );
    }
}

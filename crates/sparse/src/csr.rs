//! Compressed Sparse Row (CSR) matrices.

use std::sync::{Arc, OnceLock};

use crate::signature::StructureSignature;
use crate::{CooMatrix, DenseMatrix, MatrixProfile, Scalar, SparseError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Splitmix-style avalanche finalizer shared by all three fingerprints; the
/// word-wide FNV mix is cheap but weak on its own.
#[inline]
fn finalize_hash(mut hash: u64) -> u64 {
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A sparse matrix in Compressed Sparse Row format.
///
/// CSR stores, for an `m x n` matrix with `nnz` explicit entries:
///
/// * `row_offsets`: `m + 1` monotonically non-decreasing offsets into the
///   column/value arrays; row `i` occupies `row_offsets[i]..row_offsets[i+1]`,
/// * `col_indices`: `nnz` column indices, each `< n`,
/// * `values`: `nnz` scalar values.
///
/// CSR is the base representation for most of the load-balancing schedules in
/// the Seer SpMV case study (Table II of the paper); every other format in
/// this crate converts to and from it losslessly.
///
/// # Example
///
/// ```
/// use seer_sparse::CsrMatrix;
///
/// # fn main() -> Result<(), seer_sparse::SparseError> {
/// // [ 1 0 2 ]
/// // [ 0 0 0 ]
/// // [ 0 3 4 ]
/// let a = CsrMatrix::try_new(3, 3, vec![0, 2, 2, 4], vec![0, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let y = a.spmv(&[1.0, 1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 0.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<Scalar>,
    /// Lazily computed [`CsrMatrix::content_fingerprint`]. The buffers are
    /// only reachable through the checked mutation APIs
    /// ([`CsrMatrix::update_values`] and the structural
    /// [`CsrMatrix::into_delta`] builder), each of which resets exactly the
    /// memos its edit can stale, so a cached value never lies; cloning
    /// carries it along for free.
    fingerprint: OnceLock<u64>,
    /// Lazily computed [`CsrMatrix::sparsity_fingerprint`]: dimensions, row
    /// offsets and column indices only. Survives value-only mutation.
    sparsity: OnceLock<u64>,
    /// Lazily computed [`CsrMatrix::values_fingerprint`]: the value bits
    /// only. Reset by [`CsrMatrix::update_values`].
    values_fp: OnceLock<u64>,
    /// Lazily computed fused [`MatrixProfile`], memoized like the
    /// fingerprint. `Arc` so long-lived caches (the Seer engine) can share
    /// the profile across regenerated identical matrices without re-running
    /// the pass. The profile reads only the sparsity arrays, so it survives
    /// value-only mutation.
    profile: OnceLock<Arc<MatrixProfile>>,
    /// Lazily probed quantized [`StructureSignature`], for a matrix asked
    /// for its signature before it was profiled (a profiled matrix reads
    /// the profile's). Sparsity-only like the profile; survives value-only
    /// mutation.
    signature: OnceLock<StructureSignature>,
}

/// Equality is over the matrix content only; whether the fingerprint cache
/// has been populated is not observable.
impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_offsets == other.row_offsets
            && self.col_indices == other.col_indices
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix after validating every structural invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidRowPointers`] when `row_offsets` does not
    /// have `rows + 1` entries, is not monotone, does not start at zero or
    /// does not end at `col_indices.len()`; [`SparseError::LengthMismatch`]
    /// when `col_indices` and `values` differ in length; and
    /// [`SparseError::IndexOutOfBounds`] when a column index is `>= cols`.
    pub fn try_new(
        rows: usize,
        cols: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<Scalar>,
    ) -> Result<Self, SparseError> {
        if col_indices.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                left: "col_indices",
                left_len: col_indices.len(),
                right: "values",
                right_len: values.len(),
            });
        }
        if row_offsets.len() != rows + 1 {
            return Err(SparseError::InvalidRowPointers {
                reason: format!("expected {} offsets, found {}", rows + 1, row_offsets.len()),
            });
        }
        if row_offsets.first() != Some(&0) {
            return Err(SparseError::InvalidRowPointers {
                reason: "first offset must be 0".to_string(),
            });
        }
        if *row_offsets.last().expect("offsets are non-empty") != col_indices.len() {
            return Err(SparseError::InvalidRowPointers {
                reason: format!(
                    "last offset {} does not equal nnz {}",
                    row_offsets.last().unwrap(),
                    col_indices.len()
                ),
            });
        }
        if row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidRowPointers {
                reason: "offsets must be non-decreasing".to_string(),
            });
        }
        for (row, window) in row_offsets.windows(2).enumerate() {
            for &col in &col_indices[window[0]..window[1]] {
                if col >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row,
                        col,
                        rows,
                        cols,
                    });
                }
            }
        }
        Ok(Self::assemble(rows, cols, row_offsets, col_indices, values))
    }

    /// Wraps already-validated raw arrays with fresh memoization state.
    fn assemble(
        rows: usize,
        cols: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<Scalar>,
    ) -> Self {
        Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
            fingerprint: OnceLock::new(),
            sparsity: OnceLock::new(),
            values_fp: OnceLock::new(),
            profile: OnceLock::new(),
            signature: OnceLock::new(),
        }
    }

    /// Builds an empty `rows x cols` matrix with no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::assemble(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Builds the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::assemble(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// The row-offset array (`rows + 1` entries).
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// The column-index array (`nnz` entries).
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[Scalar] {
        &self.values
    }

    /// Number of stored entries in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_len(&self, row: usize) -> usize {
        self.row_offsets[row + 1] - self.row_offsets[row]
    }

    /// Returns `(col_indices, values)` slices for row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> (&[usize], &[Scalar]) {
        let span = self.row_offsets[row]..self.row_offsets[row + 1];
        (&self.col_indices[span.clone()], &self.values[span])
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Scalar)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Length of the longest row, answered from the memoized
    /// [`MatrixProfile`] so repeated queries (ELL conversion, kernel cost
    /// models) share one profiling pass.
    pub fn max_row_len(&self) -> usize {
        self.profile().max_row_len()
    }

    /// The fused one-pass [`MatrixProfile`] of this matrix.
    ///
    /// Computed lazily on first call and cached for the lifetime of the
    /// value, exactly like [`CsrMatrix::content_fingerprint`]; cloning the
    /// matrix carries the cached profile along.
    pub fn profile(&self) -> &MatrixProfile {
        self.profile_arc()
    }

    /// A shared handle to the memoized profile, for caches that outlive the
    /// matrix value (the Seer engine keys these by content fingerprint).
    pub fn profile_handle(&self) -> Arc<MatrixProfile> {
        Arc::clone(self.profile_arc())
    }

    /// Like [`CsrMatrix::profile_handle`], additionally reporting whether
    /// *this* call ran the profiling pass. The `OnceLock` runs its
    /// initializer at most once, so exactly one caller ever observes `true`
    /// per matrix value — race-free attribution for pass counters.
    pub fn profile_handle_tracked(&self) -> (Arc<MatrixProfile>, bool) {
        let mut computed = false;
        let arc = self.profile.get_or_init(|| {
            computed = true;
            Arc::new(MatrixProfile::compute(self))
        });
        (Arc::clone(arc), computed)
    }

    /// The memoized profile if the pass has already run, without triggering
    /// it. Lets profile caches count exactly how many passes they cause.
    pub fn cached_profile(&self) -> Option<Arc<MatrixProfile>> {
        self.profile.get().cloned()
    }

    fn profile_arc(&self) -> &Arc<MatrixProfile> {
        self.profile
            .get_or_init(|| Arc::new(MatrixProfile::compute(self)))
    }

    /// Reference sequential SpMV: `y = A * x`.
    ///
    /// This is the golden implementation every simulated GPU kernel is tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Scalar]) -> Vec<Scalar> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// SpMV into a caller-provided output buffer: `y = A * x` with no heap
    /// allocation.
    ///
    /// This is the execution hot path: the inner loop walks each row through
    /// slice iterators (one bounds check per row when slicing, none per
    /// nonzero), and a long-lived caller can reuse `y` across millions of
    /// requests. Every element of `y` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn spmv_into(&self, x: &[Scalar], y: &mut [Scalar]) {
        assert_eq!(
            x.len(),
            self.cols,
            "input vector length must equal matrix columns"
        );
        assert_eq!(
            y.len(),
            self.rows,
            "output vector length must equal matrix rows"
        );
        // `windows(2)` hands each row its offset pair without per-row
        // indexing; the zipped slice iterators keep the nonzero loop free of
        // bounds checks (only the `x` gather is checked, as it must be).
        for (out, window) in y.iter_mut().zip(self.row_offsets.windows(2)) {
            let span = window[0]..window[1];
            let mut acc = 0.0;
            for (&c, &v) in self.col_indices[span.clone()]
                .iter()
                .zip(&self.values[span])
            {
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Checked variant of [`CsrMatrix::spmv`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when `x.len() != self.cols()`.
    pub fn try_spmv(&self, x: &[Scalar]) -> Result<Vec<Scalar>, SparseError> {
        if x.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        Ok(self.spmv(x))
    }

    /// Checked variant of [`CsrMatrix::spmv_into`], sharing the same core
    /// loop.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when `x.len() !=
    /// self.cols()` or `y.len() != self.rows()`.
    pub fn try_spmv_into(&self, x: &[Scalar], y: &mut [Scalar]) -> Result<(), SparseError> {
        if x.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        if y.len() != self.rows {
            return Err(SparseError::DimensionMismatch {
                expected: self.rows,
                found: y.len(),
            });
        }
        self.spmv_into(x, y);
        Ok(())
    }

    /// Converts to a dense matrix (intended for tests and tiny inputs).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            *dense.get_mut(r, c) += v;
        }
        dense
    }

    /// Converts to coordinate (COO) format preserving row-major order.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("csr entries are in bounds");
        }
        coo
    }

    /// Consumes the matrix and returns `(rows, cols, row_offsets, col_indices, values)`.
    pub fn into_raw(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<Scalar>) {
        (
            self.rows,
            self.cols,
            self.row_offsets,
            self.col_indices,
            self.values,
        )
    }

    /// A 64-bit fingerprint of the sparsity pattern only: dimensions, row
    /// offsets and column indices — everything the [`MatrixProfile`], the
    /// kernel cost models and almost every prepared structure depend on.
    ///
    /// Two matrices share a sparsity fingerprint exactly when their structure
    /// is identical (up to the astronomically unlikely hash collision), so
    /// caches of structure-derived data — profiles, feature vectors,
    /// selection plans, merge-path tables — can key on it and survive
    /// value-only mutation via [`CsrMatrix::update_values`].
    ///
    /// The hash is a deterministic word-wise FNV-1a with a splitmix-style
    /// finalizer; it makes no cryptographic claims. Computed lazily on first
    /// call and cached, so repeated calls are O(1).
    pub fn sparsity_fingerprint(&self) -> u64 {
        *self.sparsity.get_or_init(|| {
            // One xor + multiply per 8-byte word (not per byte) keeps the
            // first-contact pass cheap on large matrices; the splitmix-style
            // finalizer restores the avalanche the word-wide mix gives up.
            let mut hash = FNV_OFFSET;
            let mut mix = |word: u64| {
                hash = (hash ^ word).wrapping_mul(FNV_PRIME);
            };
            mix(self.rows as u64);
            mix(self.cols as u64);
            mix(self.col_indices.len() as u64);
            for &offset in &self.row_offsets {
                mix(offset as u64);
            }
            for &col in &self.col_indices {
                mix(col as u64);
            }
            finalize_hash(hash)
        })
    }

    /// A 64-bit fingerprint of the value bits only, the complement of
    /// [`CsrMatrix::sparsity_fingerprint`]. Keys the rare prepared artifacts
    /// that embed values (the ELL slab) so a value mutation invalidates them
    /// — and nothing else. Reset by [`CsrMatrix::update_values`].
    pub fn values_fingerprint(&self) -> u64 {
        *self.values_fp.get_or_init(|| {
            let mut hash = FNV_OFFSET;
            let mut mix = |word: u64| {
                hash = (hash ^ word).wrapping_mul(FNV_PRIME);
            };
            mix(self.values.len() as u64);
            for &value in &self.values {
                mix(value.to_bits());
            }
            finalize_hash(hash)
        })
    }

    /// A 64-bit content fingerprint over the full explicit representation,
    /// combining [`CsrMatrix::sparsity_fingerprint`] and
    /// [`CsrMatrix::values_fingerprint`].
    ///
    /// Two matrices have the same fingerprint exactly when their CSR
    /// representations are identical (up to the astronomically unlikely hash
    /// collision), so the fingerprint can key caches of per-matrix derived
    /// data that depend on the complete value — request routing, exact replay
    /// checks. A fingerprint taken once stays valid until a mutation API
    /// resets it.
    pub fn content_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut hash = FNV_OFFSET;
            let mut mix = |word: u64| {
                hash = (hash ^ word).wrapping_mul(FNV_PRIME);
            };
            mix(self.sparsity_fingerprint());
            mix(self.values_fingerprint());
            finalize_hash(hash)
        })
    }

    /// The quantized [`StructureSignature`] of this matrix's sparsity
    /// pattern. Structurally similar matrices — the same generator family
    /// at a nearby seed, a value-mutated copy — collapse onto the same
    /// signature, which is what the engine's structure-class index keys on.
    ///
    /// A profiled matrix answers with its profile's by-product at no cost;
    /// one with no profile yet runs [`StructureSignature::probe`] (which
    /// never triggers the profile pass) and memoizes the result. Both give
    /// the same signature.
    pub fn structure_signature(&self) -> StructureSignature {
        if let Some(profile) = self.profile.get() {
            return profile.signature;
        }
        *self
            .signature
            .get_or_init(|| StructureSignature::probe(self))
    }

    /// Replaces the stored values in place, preserving the sparsity pattern.
    ///
    /// This is the sparsity-preserving half of the mutation API: the row
    /// offsets and column indices are untouched, so the memoized
    /// [`MatrixProfile`], [`CsrMatrix::sparsity_fingerprint`] and
    /// [`CsrMatrix::structure_signature`] all remain valid and are kept; only
    /// the values and content fingerprints are reset. Engine caches keyed on
    /// the sparsity fingerprint therefore stay warm across the update —
    /// a solver loop mutating its operand pays zero profile passes and zero
    /// plan rebuilds (except the values-embedding ELL slab, which re-keys on
    /// [`CsrMatrix::values_fingerprint`] and refreshes itself).
    ///
    /// Structural edits (changing which entries are stored) must go through
    /// [`CsrMatrix::into_delta`] instead, which produces a fresh value with
    /// fresh memoization state.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LengthMismatch`] when `new_values.len() !=
    /// self.nnz()`; the matrix is unchanged in that case.
    pub fn update_values(&mut self, new_values: &[Scalar]) -> Result<(), SparseError> {
        if new_values.len() != self.values.len() {
            return Err(SparseError::LengthMismatch {
                left: "values",
                left_len: self.values.len(),
                right: "new_values",
                right_len: new_values.len(),
            });
        }
        self.values.copy_from_slice(new_values);
        // Only the value-dependent memos can go stale; the sparsity
        // fingerprint, profile and signature read nothing this touched.
        self.values_fp = OnceLock::new();
        self.fingerprint = OnceLock::new();
        Ok(())
    }

    /// Applies `f` to every stored entry's value in place, preserving the
    /// sparsity pattern. Same invalidation contract as
    /// [`CsrMatrix::update_values`]: sparsity-keyed memos survive, the value
    /// and content fingerprints reset.
    ///
    /// `f` receives `(row, col, value)` and returns the replacement value.
    pub fn map_values(&mut self, mut f: impl FnMut(usize, usize, Scalar) -> Scalar) {
        for (row, window) in self.row_offsets.windows(2).enumerate() {
            for idx in window[0]..window[1] {
                self.values[idx] = f(row, self.col_indices[idx], self.values[idx]);
            }
        }
        self.values_fp = OnceLock::new();
        self.fingerprint = OnceLock::new();
    }

    /// Begins a structural delta: consumes the matrix and returns a builder
    /// over its raw arrays.
    ///
    /// This is the structural half of the mutation API. A structural edit
    /// changes what the sparsity fingerprint covers, so instead of mutating
    /// in place (and having to hunt down every stale memo), the builder
    /// re-validates and re-assembles a brand-new value with fresh
    /// memoization state via [`CsrDelta::finish`]. The old sparsity key
    /// simply stops arriving — the narrow invalidation the engine's
    /// byte-budgeted caches rely on.
    pub fn into_delta(self) -> CsrDelta {
        CsrDelta {
            rows: self.rows,
            cols: self.cols,
            row_offsets: self.row_offsets,
            col_indices: self.col_indices,
            values: self.values,
        }
    }

    /// Expands the compressed row offsets into an explicit per-nonzero row
    /// index array — the COO row stream a coordinate kernel's preprocessing
    /// dispatch materializes on the device.
    ///
    /// Entry `i` of the result is the row that stored nonzero `i` belongs to,
    /// in row-major order, so zipping it with [`CsrMatrix::col_indices`] and
    /// [`CsrMatrix::values`] reproduces [`CsrMatrix::iter`] without any
    /// per-row slicing.
    pub fn expand_row_indices(&self) -> Vec<usize> {
        let mut rows = Vec::with_capacity(self.nnz());
        for (row, window) in self.row_offsets.windows(2).enumerate() {
            rows.resize(window[1], row);
        }
        rows
    }

    /// Total bytes occupied by the explicit representation (offsets, indices,
    /// values), as seen by the memory-traffic model in the GPU simulator.
    pub fn memory_footprint_bytes(&self) -> usize {
        self.row_offsets.len() * std::mem::size_of::<usize>()
            + self.col_indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Scalar>()
    }
}

impl From<CooMatrix> for CsrMatrix {
    fn from(coo: CooMatrix) -> Self {
        coo.to_csr()
    }
}

/// A structural-delta builder over a consumed [`CsrMatrix`]'s raw arrays.
///
/// Created by [`CsrMatrix::into_delta`]; edits accumulate on the raw CSR
/// arrays and [`CsrDelta::finish`] re-validates everything through
/// [`CsrMatrix::try_new`], producing a matrix whose memoized
/// fingerprints/profile/signature start empty. See the invalidation contract
/// on [`CsrMatrix::update_values`].
#[derive(Debug, Clone)]
pub struct CsrDelta {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<Scalar>,
}

impl CsrDelta {
    /// Replaces row `row` with the given `(column, value)` entries, shifting
    /// later rows as needed. Columns should be ascending to keep the usual
    /// CSR ordering (not enforced — [`CsrMatrix::try_new`] does not require
    /// it either).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `cols` and `vals` differ in length.
    pub fn set_row(&mut self, row: usize, cols: &[usize], vals: &[Scalar]) -> &mut Self {
        assert!(
            row < self.rows,
            "row {row} out of range ({} rows)",
            self.rows
        );
        assert_eq!(cols.len(), vals.len(), "column/value length mismatch");
        let span = self.row_offsets[row]..self.row_offsets[row + 1];
        let delta = cols.len() as isize - span.len() as isize;
        self.col_indices.splice(span.clone(), cols.iter().copied());
        self.values.splice(span, vals.iter().copied());
        for offset in &mut self.row_offsets[row + 1..] {
            *offset = offset.checked_add_signed(delta).expect("offset overflow");
        }
        self
    }

    /// Validates the edited arrays and assembles the new matrix.
    ///
    /// # Errors
    ///
    /// Returns the same [`SparseError`] variants as [`CsrMatrix::try_new`]
    /// when an edit left the arrays inconsistent (e.g. a column index past
    /// `cols`).
    pub fn finish(self) -> Result<CsrMatrix, SparseError> {
        CsrMatrix::try_new(
            self.rows,
            self.cols,
            self.row_offsets,
            self.col_indices,
            self.values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::try_new(
            3,
            4,
            vec![0, 2, 3, 6],
            vec![0, 3, 1, 0, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_nnz() {
        let a = sample();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 4);
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.row_len(0), 2);
        assert_eq!(a.row_len(1), 1);
        assert_eq!(a.row_len(2), 3);
        assert_eq!(a.max_row_len(), 3);
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let a = sample();
        let y = a.spmv(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![1.0 + 8.0, 6.0, 4.0 + 15.0 + 24.0]);
    }

    #[test]
    fn try_spmv_rejects_bad_dimension() {
        let a = sample();
        let err = a.try_spmv(&[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            SparseError::DimensionMismatch {
                expected: 4,
                found: 2
            }
        );
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::LengthMismatch { .. }));
    }

    #[test]
    fn rejects_wrong_offset_count() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidRowPointers { .. }));
    }

    #[test]
    fn rejects_nonzero_first_offset() {
        let err = CsrMatrix::try_new(1, 2, vec![1, 1], vec![], vec![]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidRowPointers { .. }));
    }

    #[test]
    fn rejects_non_monotone_offsets() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidRowPointers { .. }));
    }

    #[test]
    fn rejects_trailing_offset_not_nnz() {
        let err = CsrMatrix::try_new(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidRowPointers { .. }));
    }

    #[test]
    fn rejects_column_out_of_bounds() {
        let err = CsrMatrix::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { col: 5, .. }));
    }

    #[test]
    fn identity_spmv_is_identity() {
        let eye = CsrMatrix::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(eye.spmv(&x), x);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(4, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.spmv(&[1.0; 7]), vec![0.0; 4]);
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let a = sample();
        let triplets: Vec<_> = a.iter().collect();
        assert_eq!(triplets[0], (0, 0, 1.0));
        assert_eq!(triplets.last().copied(), Some((2, 3, 6.0)));
        assert_eq!(triplets.len(), a.nnz());
    }

    #[test]
    fn dense_round_trip_matches() {
        let a = sample();
        let dense = a.to_dense();
        for (r, c, v) in a.iter() {
            assert_eq!(dense.get(r, c), v);
        }
        assert_eq!(dense.get(1, 0), 0.0);
    }

    #[test]
    fn coo_round_trip_preserves_spmv() {
        let a = sample();
        let back: CsrMatrix = a.to_coo().into();
        let x = vec![0.5, -1.0, 2.0, 3.0];
        assert_eq!(a.spmv(&x), back.spmv(&x));
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());

        // Any difference in values, structure or shape changes the hash.
        let mut values = a.values().to_vec();
        values[0] += 1.0;
        let changed_value = CsrMatrix::try_new(
            3,
            4,
            a.row_offsets().to_vec(),
            a.col_indices().to_vec(),
            values,
        )
        .unwrap();
        assert_ne!(a.content_fingerprint(), changed_value.content_fingerprint());

        let mut cols = a.col_indices().to_vec();
        cols[0] = 1;
        let changed_structure =
            CsrMatrix::try_new(3, 4, a.row_offsets().to_vec(), cols, a.values().to_vec()).unwrap();
        assert_ne!(
            a.content_fingerprint(),
            changed_structure.content_fingerprint()
        );

        assert_ne!(
            CsrMatrix::identity(5).content_fingerprint(),
            CsrMatrix::identity(6).content_fingerprint()
        );
        assert_ne!(
            CsrMatrix::zeros(2, 3).content_fingerprint(),
            CsrMatrix::zeros(3, 2).content_fingerprint()
        );
    }

    #[test]
    fn expand_row_indices_matches_iter() {
        let a = sample();
        let expanded = a.expand_row_indices();
        let from_iter: Vec<usize> = a.iter().map(|(r, _, _)| r).collect();
        assert_eq!(expanded, from_iter);
        assert_eq!(expanded, vec![0, 0, 1, 2, 2, 2]);
        assert!(CsrMatrix::zeros(3, 3).expand_row_indices().is_empty());
        assert!(CsrMatrix::zeros(0, 0).expand_row_indices().is_empty());
    }

    #[test]
    fn memory_footprint_counts_all_arrays() {
        let a = sample();
        let expected = 4 * 8 + 6 * 8 + 6 * 8;
        assert_eq!(a.memory_footprint_bytes(), expected);
    }

    #[test]
    fn fingerprint_split_separates_sparsity_from_values() {
        let a = sample();
        let mut values = a.values().to_vec();
        values[0] += 1.0;
        let changed_value = CsrMatrix::try_new(
            3,
            4,
            a.row_offsets().to_vec(),
            a.col_indices().to_vec(),
            values,
        )
        .unwrap();
        // Same structure: sparsity key agrees, values and content keys don't.
        assert_eq!(
            a.sparsity_fingerprint(),
            changed_value.sparsity_fingerprint()
        );
        assert_ne!(a.values_fingerprint(), changed_value.values_fingerprint());
        assert_ne!(a.content_fingerprint(), changed_value.content_fingerprint());

        let mut cols = a.col_indices().to_vec();
        cols[0] = 1;
        let changed_structure =
            CsrMatrix::try_new(3, 4, a.row_offsets().to_vec(), cols, a.values().to_vec()).unwrap();
        // Same values, different structure: the values key agrees, the
        // sparsity and content keys don't.
        assert_eq!(
            a.values_fingerprint(),
            changed_structure.values_fingerprint()
        );
        assert_ne!(
            a.sparsity_fingerprint(),
            changed_structure.sparsity_fingerprint()
        );
        assert_ne!(
            a.content_fingerprint(),
            changed_structure.content_fingerprint()
        );
    }

    #[test]
    fn update_values_keeps_sparsity_memos_and_resets_value_memos() {
        let mut a = sample();
        let sparsity = a.sparsity_fingerprint();
        let values_fp = a.values_fingerprint();
        let content = a.content_fingerprint();
        let signature = a.structure_signature();
        let profile = a.profile_handle();

        let new_values: Vec<f64> = a.values().iter().map(|v| v * 2.0).collect();
        a.update_values(&new_values).unwrap();

        assert_eq!(a.values(), new_values.as_slice());
        assert_eq!(a.sparsity_fingerprint(), sparsity);
        assert_ne!(a.values_fingerprint(), values_fp);
        assert_ne!(a.content_fingerprint(), content);
        assert_eq!(a.structure_signature(), signature);
        // The profile memo survived: same Arc, no second pass.
        assert!(Arc::ptr_eq(&profile, &a.profile_handle()));

        // The refreshed fingerprints match a from-scratch matrix with the
        // same content.
        let fresh = CsrMatrix::try_new(
            3,
            4,
            a.row_offsets().to_vec(),
            a.col_indices().to_vec(),
            new_values,
        )
        .unwrap();
        assert_eq!(a.values_fingerprint(), fresh.values_fingerprint());
        assert_eq!(a.content_fingerprint(), fresh.content_fingerprint());
        assert_eq!(a.sparsity_fingerprint(), fresh.sparsity_fingerprint());
    }

    #[test]
    fn update_values_rejects_wrong_length_and_leaves_matrix_unchanged() {
        let mut a = sample();
        let before = a.clone();
        let err = a.update_values(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::LengthMismatch { .. }));
        assert_eq!(a, before);
    }

    #[test]
    fn map_values_transforms_in_place() {
        let mut a = sample();
        let spmv_before = a.spmv(&[1.0, 1.0, 1.0, 1.0]);
        a.map_values(|_r, _c, v| v * 3.0);
        let spmv_after = a.spmv(&[1.0, 1.0, 1.0, 1.0]);
        for (before, after) in spmv_before.iter().zip(&spmv_after) {
            assert_eq!(*after, before * 3.0);
        }
        // map_values saw the right coordinates.
        let mut b = sample();
        b.map_values(|r, c, _v| (r * 10 + c) as f64);
        for (r, c, v) in b.iter() {
            assert_eq!(v, (r * 10 + c) as f64);
        }
    }

    #[test]
    fn delta_set_row_rebuilds_a_valid_matrix() {
        let a = sample();
        let dense_before = a.to_dense();
        let mut delta = a.into_delta();
        delta.set_row(1, &[0, 2, 3], &[7.0, 8.0, 9.0]);
        let b = delta.finish().unwrap();
        assert_eq!(b.nnz(), 8);
        assert_eq!(b.row(1), (&[0usize, 2, 3][..], &[7.0, 8.0, 9.0][..]));
        // Untouched rows carry over.
        for r in [0usize, 2] {
            for (c, (dc, dv)) in b
                .row(r)
                .0
                .iter()
                .zip(b.row(r).0.iter().zip(b.row(r).1.iter()))
            {
                assert_eq!(c, dc);
                assert_eq!(dense_before.get(r, *dc), *dv);
            }
        }

        // Shrinking a row works too.
        let mut delta = b.clone().into_delta();
        delta.set_row(1, &[], &[]);
        let c = delta.finish().unwrap();
        assert_eq!(c.row_len(1), 0);
        assert_eq!(c.nnz(), 5);
    }

    #[test]
    fn delta_finish_revalidates() {
        let a = sample();
        let mut delta = a.into_delta();
        delta.set_row(0, &[9], &[1.0]);
        let err = delta.finish().unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { col: 9, .. }));
    }
}

//! Coordinate (COO) format sparse matrices.

use crate::{CsrMatrix, Scalar, SparseError};

/// A sparse matrix stored as `(row, col, value)` triplets.
///
/// COO is the natural assembly and interchange format: MatrixMarket files are
/// COO on disk, and the synthetic generators in [`crate::generators`] build
/// matrices by pushing triplets. The COO wavefront-mapped SpMV kernel in the
/// case study (Table II) also consumes this format directly.
///
/// Duplicate entries are allowed and are summed when converting to CSR, the
/// same convention MatrixMarket and SuiteSparse use.
///
/// # Example
///
/// ```
/// use seer_sparse::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), seer_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0)?;
/// coo.push(1, 1, 2.0)?;
/// coo.push(1, 1, 3.0)?; // duplicate, summed on conversion
/// let csr: CsrMatrix = coo.to_csr();
/// assert_eq!(csr.spmv(&[1.0, 1.0]), vec![1.0, 5.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_indices: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<Scalar>,
}

impl CooMatrix {
    /// Creates an empty `rows x cols` COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_indices: Vec::new(),
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with capacity reserved for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        Self {
            rows,
            cols,
            row_indices: Vec::with_capacity(nnz),
            col_indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Builds a COO matrix from parallel triplet arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LengthMismatch`] if the arrays differ in length
    /// and [`SparseError::IndexOutOfBounds`] if any coordinate is outside the
    /// declared shape.
    pub fn try_from_triplets(
        rows: usize,
        cols: usize,
        row_indices: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<Scalar>,
    ) -> Result<Self, SparseError> {
        if row_indices.len() != col_indices.len() {
            return Err(SparseError::LengthMismatch {
                left: "row_indices",
                left_len: row_indices.len(),
                right: "col_indices",
                right_len: col_indices.len(),
            });
        }
        if row_indices.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                left: "row_indices",
                left_len: row_indices.len(),
                right: "values",
                right_len: values.len(),
            });
        }
        for (&r, &c) in row_indices.iter().zip(&col_indices) {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        Ok(Self {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        })
    }

    /// Appends one `(row, col, value)` entry.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if the coordinate lies
    /// outside the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, value: Scalar) -> Result<(), SparseError> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.row_indices.push(row);
        self.col_indices.push(col);
        self.values.push(value);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row indices of the stored triplets.
    pub fn row_indices(&self) -> &[usize] {
        &self.row_indices
    }

    /// Column indices of the stored triplets.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// Values of the stored triplets.
    pub fn values(&self) -> &[Scalar] {
        &self.values
    }

    /// Iterates over `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Scalar)> + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Reference sequential SpMV: `y = A * x` over the raw triplets.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[Scalar]) -> Vec<Scalar> {
        assert_eq!(
            x.len(),
            self.cols,
            "input vector length must equal matrix columns"
        );
        let mut y = vec![0.0; self.rows];
        for (r, c, v) in self.iter() {
            y[r] += v * x[c];
        }
        y
    }

    /// Converts to CSR, sorting entries row-major and summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the row-offset arrays for `rows` rows cannot be allocated.
    pub fn to_csr(&self) -> CsrMatrix {
        self.try_to_csr()
            .expect("row offsets for every row fit in memory")
    }

    /// [`CooMatrix::to_csr`], returning `None` instead of aborting when the
    /// arrays sized by the row count cannot be allocated. The entry arrays
    /// are sized by entries already held, so only the row count — an
    /// untrusted header field in [`crate::market`] — can be unallocatable.
    pub(crate) fn try_to_csr(&self) -> Option<CsrMatrix> {
        let offsets_len = self.rows.checked_add(1)?;
        let zeroed_offsets = || {
            let mut offsets: Vec<usize> = Vec::new();
            offsets.try_reserve_exact(offsets_len).ok()?;
            offsets.resize(offsets_len, 0);
            Some(offsets)
        };
        // Counting sort on rows keeps conversion O(nnz + rows).
        let mut counts = zeroed_offsets()?;
        for &r in &self.row_indices {
            counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut next = zeroed_offsets()?;
        next.copy_from_slice(&counts);
        let nnz = self.nnz();
        let mut cols = vec![0usize; nnz];
        let mut vals = vec![0.0; nnz];
        for (r, c, v) in self.iter() {
            let slot = next[r];
            cols[slot] = c;
            vals[slot] = v;
            next[r] += 1;
        }
        // Sort within each row by column, then merge duplicates.
        let mut merged_offsets = Vec::new();
        merged_offsets.try_reserve_exact(offsets_len).ok()?;
        let mut merged_cols = Vec::with_capacity(nnz);
        let mut merged_vals = Vec::with_capacity(nnz);
        merged_offsets.push(0);
        for row in 0..self.rows {
            let span = counts[row]..counts[row + 1];
            let mut entries: Vec<(usize, Scalar)> = cols[span.clone()]
                .iter()
                .copied()
                .zip(vals[span].iter().copied())
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in entries {
                if merged_cols.len() > *merged_offsets.last().unwrap()
                    && *merged_cols.last().unwrap() == c
                {
                    *merged_vals.last_mut().unwrap() += v;
                } else {
                    merged_cols.push(c);
                    merged_vals.push(v);
                }
            }
            merged_offsets.push(merged_cols.len());
        }
        let csr = CsrMatrix::try_new(
            self.rows,
            self.cols,
            merged_offsets,
            merged_cols,
            merged_vals,
        )
        .expect("coo entries were validated on insertion");
        Some(csr)
    }

    /// Total bytes occupied by the triplet representation.
    pub fn memory_footprint_bytes(&self) -> usize {
        self.row_indices.len() * std::mem::size_of::<usize>()
            + self.col_indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Scalar>()
    }
}

impl From<CsrMatrix> for CooMatrix {
    fn from(csr: CsrMatrix) -> Self {
        csr.to_coo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(1, 2, 3.0).unwrap();
        let triplets: Vec<_> = coo.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 2.0), (1, 2, 3.0)]);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn push_out_of_bounds_is_error() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    fn try_from_triplets_validates() {
        let err = CooMatrix::try_from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::LengthMismatch { .. }));
        let err = CooMatrix::try_from_triplets(2, 2, vec![0], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
        let ok = CooMatrix::try_from_triplets(2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0]);
        assert!(ok.is_ok());
    }

    #[test]
    fn to_csr_sorts_rows_and_columns() {
        let coo = CooMatrix::try_from_triplets(
            3,
            3,
            vec![2, 0, 1, 0],
            vec![1, 2, 0, 0],
            vec![5.0, 3.0, 4.0, 1.0],
        )
        .unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.row_offsets(), &[0, 2, 3, 4]);
        assert_eq!(csr.col_indices(), &[0, 2, 0, 1]);
        assert_eq!(csr.values(), &[1.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn to_csr_sums_duplicates() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 1.5).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.values(), &[4.0]);
    }

    #[test]
    fn spmv_agrees_with_csr() {
        let coo = CooMatrix::try_from_triplets(
            3,
            4,
            vec![0, 0, 1, 2, 2],
            vec![0, 3, 1, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        let x = vec![1.0, -1.0, 2.0, 0.5];
        assert_eq!(coo.spmv(&x), coo.to_csr().spmv(&x));
    }

    #[test]
    fn csr_coo_round_trip() {
        let csr = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![7.0, 8.0]).unwrap();
        let coo: CooMatrix = csr.clone().into();
        let back: CsrMatrix = coo.into();
        assert_eq!(csr, back);
    }

    #[test]
    fn empty_matrix_conversion() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.rows(), 3);
    }
}

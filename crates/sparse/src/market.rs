//! MatrixMarket (`.mtx`) reading and writing.
//!
//! The paper evaluates on the SuiteSparse Matrix Collection, which is
//! distributed as MatrixMarket files. The synthetic collection in
//! [`crate::collection`] stands in when SuiteSparse is not available, but
//! this module lets users point the whole pipeline at real `.mtx` files.
//!
//! Supported: `matrix coordinate {real,integer,pattern} {general,symmetric,skew-symmetric}`.
//! Complex matrices and dense (`array`) files are rejected with a parse error.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{CooMatrix, CsrMatrix, SparseError};

/// Symmetry declared in a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Value field declared in a MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

/// Most entries [`read_coo`] reserves room for before reading any.
const MAX_RESERVED_ENTRIES: usize = 1 << 16;

/// Reads a MatrixMarket coordinate file into a [`CooMatrix`].
///
/// Symmetric and skew-symmetric files are expanded to their full (general)
/// form, matching how SpMV libraries consume SuiteSparse matrices.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] for malformed content and
/// [`SparseError::Io`] for I/O failures.
pub fn read_coo<R: Read>(reader: R) -> Result<CooMatrix, SparseError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    let (header_line_no, header) = loop {
        match lines.next() {
            Some((idx, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (idx + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    reason: "empty file".to_string(),
                })
            }
        }
    };

    let (field, symmetry) = parse_header(&header, header_line_no)?;

    // Skip comments and blank lines until the size line.
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((idx, line)) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                break (idx + 1, line);
            }
            None => {
                return Err(SparseError::Parse {
                    line: header_line_no,
                    reason: "missing size line".to_string(),
                })
            }
        }
    };

    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: size_line_no,
            reason: format!("expected 'rows cols nnz', found '{}'", size_line.trim()),
        });
    }
    let rows = parse_usize(dims[0], size_line_no)?;
    let cols = parse_usize(dims[1], size_line_no)?;
    let declared_nnz = parse_usize(dims[2], size_line_no)?;

    // The header is untrusted: reserve for at most a bounded number of
    // entries and let the triplets grow from what the file really holds, so
    // an absurd declared count ends in the mismatch error below instead of
    // an allocation failure.
    let mut coo = CooMatrix::with_capacity(rows, cols, declared_nnz.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let line_no = idx + 1;
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        let min_parts = if field == Field::Pattern { 2 } else { 3 };
        if parts.len() < min_parts {
            return Err(SparseError::Parse {
                line: line_no,
                reason: format!(
                    "expected at least {min_parts} fields, found {}",
                    parts.len()
                ),
            });
        }
        let r = parse_usize(parts[0], line_no)?;
        let c = parse_usize(parts[1], line_no)?;
        if r == 0 || c == 0 {
            return Err(SparseError::Parse {
                line: line_no,
                reason: "matrixmarket indices are 1-based; found 0".to_string(),
            });
        }
        let value = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                parts[2].parse::<f64>().map_err(|e| SparseError::Parse {
                    line: line_no,
                    reason: format!("bad value '{}': {e}", parts[2]),
                })?
            }
        };
        coo.push(r - 1, c - 1, value)?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if r != c {
                    coo.push(c - 1, r - 1, value)?;
                }
            }
            Symmetry::SkewSymmetric => {
                if r != c {
                    coo.push(c - 1, r - 1, -value)?;
                }
            }
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(SparseError::Parse {
            line: size_line_no,
            reason: format!("header declares {declared_nnz} entries but file contains {seen}"),
        });
    }
    Ok(coo)
}

/// Reads a MatrixMarket coordinate file into CSR form.
///
/// # Errors
///
/// See [`read_coo`].
pub fn read_csr<R: Read>(reader: R) -> Result<CsrMatrix, SparseError> {
    Ok(read_coo(reader)?.to_csr())
}

/// Reads a MatrixMarket file from a path into CSR form.
///
/// # Errors
///
/// See [`read_coo`]; additionally returns [`SparseError::Io`] if the file
/// cannot be opened.
pub fn read_csr_from_path<P: AsRef<Path>>(path: P) -> Result<CsrMatrix, SparseError> {
    let file = std::fs::File::open(path)?;
    read_csr(file)
}

/// Writes a matrix as a `matrix coordinate real general` MatrixMarket file.
///
/// # Errors
///
/// Returns [`SparseError::Io`] if writing fails.
pub fn write_csr<W: Write>(matrix: &CsrMatrix, mut writer: W) -> Result<(), SparseError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% generated by seer-sparse")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz()
    )?;
    for (r, c, v) in matrix.iter() {
        writeln!(writer, "{} {} {v:e}", r + 1, c + 1)?;
    }
    Ok(())
}

fn parse_header(header: &str, line_no: usize) -> Result<(Field, Symmetry), SparseError> {
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse {
            line: line_no,
            reason: format!("not a matrixmarket header: '{}'", header.trim()),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: line_no,
            reason: format!(
                "unsupported storage format '{}' (only coordinate)",
                tokens[2]
            ),
        });
    }
    let field = match tokens[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(SparseError::Parse {
                line: line_no,
                reason: format!("unsupported value field '{other}'"),
            })
        }
    };
    let symmetry = match tokens[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse {
                line: line_no,
                reason: format!("unsupported symmetry '{other}'"),
            })
        }
    };
    Ok((field, symmetry))
}

fn parse_usize(token: &str, line_no: usize) -> Result<usize, SparseError> {
    token.parse::<usize>().map_err(|e| SparseError::Parse {
        line: line_no,
        reason: format!("bad integer '{token}': {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 1.0\n\
        1 3 2.0\n\
        2 2 3.0\n\
        3 1 4.0\n";

    #[test]
    fn read_general_real() {
        let csr = read_csr(GENERAL.as_bytes()).unwrap();
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 3);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.spmv(&[1.0, 1.0, 1.0]), vec![3.0, 3.0, 4.0]);
    }

    #[test]
    fn read_symmetric_expands() {
        let content = "%%MatrixMarket matrix coordinate real symmetric\n\
            2 2 2\n\
            1 1 5.0\n\
            2 1 7.0\n";
        let csr = read_csr(content.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.spmv(&[1.0, 1.0]), vec![12.0, 7.0]);
    }

    #[test]
    fn read_skew_symmetric_negates() {
        let content = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
            2 2 1\n\
            2 1 3.0\n";
        let csr = read_csr(content.as_bytes()).unwrap();
        assert_eq!(csr.spmv(&[1.0, 1.0]), vec![-3.0, 3.0]);
    }

    #[test]
    fn read_pattern_uses_unit_values() {
        let content = "%%MatrixMarket matrix coordinate pattern general\n\
            2 2 2\n\
            1 2\n\
            2 1\n";
        let csr = read_csr(content.as_bytes()).unwrap();
        assert_eq!(csr.values(), &[1.0, 1.0]);
    }

    #[test]
    fn rejects_dense_array_format() {
        let content = "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
        let err = read_csr(content.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }));
    }

    #[test]
    fn rejects_complex_field() {
        let content = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n";
        assert!(read_csr(content.as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let content = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_csr(content.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let content = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_csr(content.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }));
    }

    #[test]
    fn absurd_declared_entry_count_is_a_parse_error() {
        let content = "%%MatrixMarket matrix coordinate real general\n\
            1 1 9999999999999999\n\
            1 1 1.0\n";
        let err = read_csr(content.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn rejects_empty_file() {
        assert!(read_csr("".as_bytes()).is_err());
    }

    #[test]
    fn write_then_read_round_trip() {
        let original = read_csr(GENERAL.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_csr(&original, &mut buf).unwrap();
        let back = read_csr(buf.as_slice()).unwrap();
        assert_eq!(original, back);
    }

    #[test]
    fn integer_field_parses() {
        let content = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 7\n";
        let csr = read_csr(content.as_bytes()).unwrap();
        assert_eq!(csr.values(), &[7.0]);
    }
}

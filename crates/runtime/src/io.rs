//! Binary matrix IO backing `readMatrix` / `writeMatrix`.
//!
//! The paper's programs begin with `readMatrix("ssh.data")` and end with
//! `writeMatrix("eddyLabels.data", labels)`. The file format is the
//! self-describing CMMX container of [`crate::cmmx`].

use std::path::Path;

use crate::cmmx;
use crate::element::Element;
use crate::error::{MatrixError, Result};
use crate::matrix::Matrix;

/// Write a matrix to `path` in the CMMX container format.
pub fn write_matrix<T: Element>(path: impl AsRef<Path>, m: &Matrix<T>) -> Result<()> {
    let cells = m.as_slice().iter().map(|v| v.to_bytes());
    std::fs::write(path, cmmx::encode(T::TAG, m.shape().dims(), cells))?;
    Ok(())
}

/// Read a matrix of element type `T` from `path`.
///
/// Fails with [`MatrixError::Format`] if the file is not a well-formed
/// CMMX container ([`cmmx::parse`]) or stores a different element type —
/// the static type in the extended-C declaration must match the file
/// contents.
pub fn read_matrix<T: Element>(path: impl AsRef<Path>) -> Result<Matrix<T>> {
    let bytes = std::fs::read(path)?;
    let header = cmmx::parse(&bytes, T::TAG)
        .map_err(|e| MatrixError::Format(e.to_string()))?;
    let data = header.cells(&bytes).map(T::from_bytes).collect();
    Matrix::from_vec(header.dims.as_slice(), data)
}

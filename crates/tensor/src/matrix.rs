//! A small row-major dense `f32` matrix.
//!
//! [`Matrix`] is used throughout the workspace to hold key/value tensors
//! (`L × d`), projection weights (`d × d`) and centroid tables (`C × d`).
//! It intentionally supports only the operations the reproduction needs.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// Dense row-major `f32` matrix.
///
/// # Examples
///
/// ```
/// use clusterkv_tensor::Matrix;
///
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a zero-filled matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements ({}x{})", rows * cols, rows, cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Build a matrix from a list of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when rows have differing
    /// lengths, or [`TensorError::InvalidArgument`] when `rows` is empty.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::InvalidArgument(
                "from_rows requires at least one row".into(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    expected: format!("row of length {cols}"),
                    found: format!("row {i} of length {}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols.max(1)).take(self.rows)
    }

    /// Append a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the row length does not
    /// match the matrix width. An empty (0×0) matrix adopts the row's length.
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("row of length {}", self.cols),
                found: format!("row of length {}", row.len()),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Reserve capacity for `additional` more rows, so a known-length run of
    /// [`push_row`](Self::push_row) / [`extend_rows`](Self::extend_rows)
    /// performs at most one reallocation instead of amortized growth.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Append every row of `other` in one bulk copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ.
    /// An empty (0×0) matrix adopts `other`'s width.
    pub fn extend_rows(&mut self, other: &Matrix) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = other.cols;
        }
        if other.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("rows of length {}", self.cols),
                found: format!("rows of length {}", other.cols),
            });
        }
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
        Ok(())
    }

    /// Append rows `start..end` of `other` in one bulk copy, without
    /// materialising an intermediate sub-matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ.
    /// An empty (0×0) matrix adopts `other`'s width.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > other.rows()`.
    pub fn extend_rows_range(&mut self, other: &Matrix, start: usize, end: usize) -> Result<()> {
        assert!(
            start <= end && end <= other.rows,
            "invalid row range {start}..{end}"
        );
        if self.rows == 0 && self.cols == 0 {
            self.cols = other.cols;
        }
        if other.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("rows of length {}", self.cols),
                found: format!("rows of length {}", other.cols),
            });
        }
        self.data
            .extend_from_slice(&other.data[start * self.cols..end * self.cols]);
        self.rows += end - start;
        Ok(())
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                expected: format!("rhs with {} rows", self.cols),
                found: format!("rhs with {} rows", other.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &b) in orow.iter().enumerate() {
                    out_row[j] += a * b;
                }
            }
        }
        Ok(out)
    }

    /// `vec · selfᵀ`: multiply a row vector of length `cols()` by the
    /// transpose of this matrix, yielding one score per row. This is the
    /// exact shape of the "query against keys/centroids" operation.
    ///
    /// Routed through the blocked kernel
    /// [`matvec_t_into`](crate::kernels::matvec_t_into); the pre-kernel
    /// scalar path survives as
    /// [`matvec_t_reference`](crate::kernels::matvec_t_reference).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `v.len() != self.cols()`.
    pub fn matvec_t(&self, v: &[f32]) -> Result<Vec<f32>> {
        if v.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", v.len()),
            });
        }
        let mut out = Vec::new();
        crate::kernels::matvec_t_into(self, v, &mut out);
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Copy of the rows at the given indices, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`select_rows`](Self::select_rows) into a caller-owned matrix, which
    /// is overwritten and keeps its buffer: no allocation once its capacity
    /// covers `indices.len()` rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &src in indices {
            out.data.extend_from_slice(self.row(src));
        }
        out.rows = indices.len();
        out.cols = self.cols;
    }

    /// Shape the matrix `rows × cols` in place, keeping its buffer **and
    /// whatever the buffer holds**: nothing is written unless the matrix
    /// grows, and then only the added tail (zeros). For a caller that goes
    /// on to write every row itself; what the rows hold until then is left
    /// over from earlier use.
    // analyzer: hot-path — zero-allocation contract (tests/zero_alloc.rs)
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Drop every row, keeping the width and the buffer.
    pub fn clear_rows(&mut self) {
        self.data.clear();
        self.rows = 0;
    }

    /// Number of `f32` elements the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Sub-matrix consisting of rows `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "invalid row range {start}..{end}"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty_input() {
        assert!(Matrix::from_rows(vec![]).is_err());
    }

    #[test]
    fn from_flat_checks_size() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let id = Matrix::identity(2);
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(vec![vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_t_scores_each_row() {
        let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let q = [2.0, 3.0];
        assert_eq!(keys.matvec_t(&q).unwrap(), vec![2.0, 3.0, 5.0]);
        assert!(keys.matvec_t(&[1.0]).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().row(0), &[1.0, 4.0]);
    }

    #[test]
    fn select_rows_preserves_order() {
        let m = Matrix::from_rows(vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    fn select_rows_into_overwrites_and_reuses_the_buffer() {
        let m = Matrix::from_rows(vec![vec![0.0, 0.5], vec![1.0, 1.5], vec![2.0, 2.5]]).unwrap();
        let mut out = Matrix::default();
        m.select_rows_into(&[2, 0, 1], &mut out);
        assert_eq!(out, m.select_rows(&[2, 0, 1]));
        let warm = out.capacity();
        m.select_rows_into(&[1], &mut out);
        assert_eq!(out, m.select_rows(&[1]));
        assert_eq!(out.capacity(), warm, "a smaller gather keeps the buffer");
        out.clear_rows();
        assert_eq!(out.shape(), (0, 2));
        assert_eq!(out.capacity(), warm);
        out.push_row(&[7.0, 8.0]).unwrap();
        assert_eq!(out.row(0), &[7.0, 8.0]);
    }

    #[test]
    fn reshape_keeps_the_buffer_and_writes_only_what_it_adds() {
        let mut m =
            Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let warm = m.capacity();
        m.reshape(2, 2);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(
            m.as_slice(),
            &[1.0, 2.0, 3.0, 4.0],
            "kept rows are untouched"
        );
        m.reshape(1, 6);
        assert_eq!(
            m.row(0),
            &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0],
            "only the growth is zeroed"
        );
        assert_eq!(m.capacity(), warm);
    }

    #[test]
    fn slice_rows_basic() {
        let m = Matrix::from_rows(vec![vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let s = m.slice_rows(1, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[1.0]);
    }

    #[test]
    fn extend_rows_matches_repeated_push() {
        let other = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut bulk = Matrix::from_rows(vec![vec![9.0, 8.0]]).unwrap();
        bulk.reserve_rows(other.rows());
        bulk.extend_rows(&other).unwrap();
        let mut one_by_one = Matrix::from_rows(vec![vec![9.0, 8.0]]).unwrap();
        for r in other.iter_rows() {
            one_by_one.push_row(r).unwrap();
        }
        assert_eq!(bulk, one_by_one);
        // Width mismatch is rejected; an empty matrix adopts the width.
        assert!(bulk.extend_rows(&Matrix::zeros(1, 3)).is_err());
        let mut empty = Matrix::default();
        empty.extend_rows(&other).unwrap();
        assert_eq!(empty, other);
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[5.0]).is_err());
    }

    proptest! {
        #[test]
        fn matmul_is_associative_with_identity(
            rows in 1usize..6, cols in 1usize..6,
            seed in proptest::collection::vec(-5.0f32..5.0, 36),
        ) {
            let data: Vec<f32> = seed.into_iter().take(rows * cols).collect();
            prop_assume!(data.len() == rows * cols);
            let m = Matrix::from_flat(rows, cols, data).unwrap();
            let id = Matrix::identity(cols);
            prop_assert_eq!(m.matmul(&id).unwrap(), m);
        }

        #[test]
        fn transpose_is_involutive(
            rows in 1usize..6, cols in 1usize..6,
            seed in proptest::collection::vec(-5.0f32..5.0, 36),
        ) {
            let data: Vec<f32> = seed.into_iter().take(rows * cols).collect();
            prop_assume!(data.len() == rows * cols);
            let m = Matrix::from_flat(rows, cols, data).unwrap();
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}

//! Row-major dense matrices and rectangular views.
//!
//! The recursion in Strassen-like algorithms works on quadrants (more
//! generally `n0 x n0` block grids) of the operands, so the central types are
//! the borrowed views [`MatRef`] / [`MatMut`], which describe a rectangular
//! window of a parent allocation via an offset and a row stride. Owning
//! [`Matrix`] is a thin wrapper that hands out full-size views.

use crate::scalar::Scalar;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Fused AXPY row kernel: `dst[j] += c * src[j]` over contiguous row
/// slices, with the coefficient dispatch hoisted out of the loop so each
/// specialization (`c == ±1`, general `c`) is a branch-free loop the
/// compiler autovectorizes.
///
/// **Bit-compatibility:** per element this performs exactly
/// [`Scalar::add_scaled`] — `add` for `c == 1`, `sub` for `c == -1`, and
/// `add(mul(from_i64(c)))` otherwise — in ascending `j`, so it is
/// bit-identical to the historical per-element loop. It is the shared
/// encode/decode kernel of the recursive engines (see [`crate::arena`]):
/// every `T_l += U[l][q]·A_q` term after the first and every
/// `C_q += W[q][l]·M_l` decode after a block's first runs through here,
/// row by row; first terms run through [`axpy_set_row`].
#[inline]
pub fn axpy_row<T: Scalar>(dst: &mut [T], src: &[T], c: i64) {
    debug_assert_eq!(dst.len(), src.len());
    match c {
        0 => {}
        1 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = d.add(s);
            }
        }
        -1 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = d.sub(s);
            }
        }
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = d.add_scaled(s, c);
            }
        }
    }
}

/// First-touch AXPY row kernel: `dst[j] = 0 ⊕ c * src[j]`, the first term
/// of an encode or decode, written without reading `dst` (which may hold
/// anything on entry).
///
/// **Bit-compatibility:** per element this is exactly
/// [`Scalar::add_scaled`] on a zero accumulator — `0 + s` for `c == 1`,
/// `0 - s` for `c == -1`, `0 + s·c` otherwise — so it writes the bits a
/// zero-filled `dst` followed by [`axpy_row`] would. Over floats that is
/// not a plain copy or negation: `0 + (-0.0)` and `0 - 0.0` are both
/// `+0.0`. `c == 0` writes zeros.
#[inline]
pub fn axpy_set_row<T: Scalar>(dst: &mut [T], src: &[T], c: i64) {
    debug_assert_eq!(dst.len(), src.len());
    let zero = T::zero();
    match c {
        0 => dst.fill(zero),
        1 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = zero.add(s);
            }
        }
        -1 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = zero.sub(s);
            }
        }
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = zero.add_scaled(s, c);
            }
        }
    }
}

/// An owning, row-major dense matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> Matrix<T> {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major element vector. Panics if the length is wrong.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "element count must be rows*cols");
        Matrix { rows, cols, data }
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

    /// Borrow the raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// A read-only view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_, T> {
        MatRef {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            off: 0,
        }
    }

    /// A mutable view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            off: 0,
            data: &mut self.data,
        }
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a.add(b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a.sub(b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale every element by `c`.
    pub fn scale(&self, c: T) -> Self {
        let data = self.data.iter().map(|&a| a.mul(c)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Maximum absolute difference interpreted through `to_f64`, for
    /// float comparisons in tests and benches.
    pub fn max_abs_diff(&self, other: &Self, to_f64: impl Fn(T) -> f64) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (to_f64(a) - to_f64(b)).abs())
            .fold(0.0, f64::max)
    }
}

impl Matrix<f64> {
    /// Uniform random matrix in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let dist = Uniform::new(-1.0, 1.0);
        Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
    }

    /// Bit-pattern equality: same dimensions and every element's
    /// `f64::to_bits` identical (so `-0.0 ≠ 0.0` and NaN payloads
    /// compare exactly — stricter than `==`). The single-sourced check
    /// behind every bit-determinism witness (engine vs copy-out oracle,
    /// parallel vs sequential, distributed gather vs `multiply_scheme`).
    pub fn bits_eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Matrix<f32> {
    /// Uniform random matrix in `[-1, 1)` — sampled at `f64` precision and
    /// rounded to `f32` (the vendored rand shim has no native `f32`
    /// sampler; the rounding is deterministic, which is all the
    /// determinism witnesses need). Named `random_f32` rather than
    /// `random`: a second inherent `random` would make every
    /// inference-typed `Matrix::random(..)` call site ambiguous (E0034).
    pub fn random_f32(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let dist = Uniform::new(-1.0f64, 1.0);
        Matrix::from_fn(rows, cols, |_, _| dist.sample(rng) as f32)
    }

    /// `f32` analog of the `f64` [`Matrix::bits_eq`]: same dimensions and
    /// every element's `f32::to_bits` identical.
    pub fn bits_eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Matrix<i64> {
    /// Random small-integer matrix (entries in `[-bound, bound]`), handy for
    /// exact cross-algorithm comparisons.
    pub fn random_int(rows: usize, cols: usize, bound: i64, rng: &mut impl Rng) -> Self {
        let dist = Uniform::new_inclusive(-bound, bound);
        Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
    }
}

impl crate::scalar::Fp {
    /// Random field element.
    pub fn random(rng: &mut impl Rng) -> Self {
        crate::scalar::Fp::new(rng.gen::<u64>())
    }
}

impl Matrix<crate::scalar::Fp> {
    /// Uniform random matrix over the prime field.
    pub fn random_fp(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| crate::scalar::Fp::random(rng))
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// A read-only rectangular window into a row-major allocation.
#[derive(Copy, Clone)]
pub struct MatRef<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    stride: usize,
    off: usize,
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// View a row-major slice as a full `rows x cols` matrix window.
    /// Panics if the slice length is not `rows * cols`.
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "slice length must be rows*cols");
        MatRef {
            data,
            rows,
            cols,
            stride: cols,
            off: 0,
        }
    }

    /// Number of rows of the window.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the window.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)` of the window.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[self.off + i * self.stride + j]
    }

    /// Sub-window at offset `(r0, c0)` with shape `rows x cols`.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatRef<'a, T> {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of range"
        );
        MatRef {
            data: self.data,
            rows,
            cols,
            stride: self.stride,
            off: self.off + r0 * self.stride + c0,
        }
    }

    /// Row `i` of the window as a contiguous slice (rows are contiguous in
    /// any row-major window, whatever its stride).
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        debug_assert!(i < self.rows);
        let start = self.off + i * self.stride;
        &self.data[start..start + self.cols]
    }

    /// Columns `c0 .. c0 + len` of row `i` of the window read as if
    /// zero-extended past its stored corner, cut to the stored part: empty
    /// when row `i` or column `c0` lies past the corner.
    #[inline]
    pub(crate) fn clipped_row(&self, i: usize, c0: usize, len: usize) -> &'a [T] {
        if i >= self.rows || c0 >= self.cols {
            return &[];
        }
        &self.row(i)[c0..self.cols.min(c0 + len)]
    }

    /// Copy the window into an owned matrix.
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

/// A mutable rectangular window into a row-major allocation.
pub struct MatMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    stride: usize,
    off: usize,
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// View a mutable row-major slice as a full `rows x cols` matrix window.
    /// Panics if the slice length is not `rows * cols`.
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "slice length must be rows*cols");
        MatMut {
            rows,
            cols,
            stride: cols,
            off: 0,
            data,
        }
    }

    /// Number of rows of the window.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the window.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[self.off + i * self.stride + j]
    }

    /// Overwrite element at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[self.off + i * self.stride + j] = v;
    }

    /// Reborrow as read-only.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            off: self.off,
        }
    }

    /// Reborrow a mutable sub-window at `(r0, c0)` with shape `rows x cols`.
    pub fn block_mut(&mut self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatMut<'_, T> {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "block out of range"
        );
        MatMut {
            rows,
            cols,
            stride: self.stride,
            off: self.off + r0 * self.stride + c0,
            data: self.data,
        }
    }

    /// Row `i` of the window as a contiguous mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        let start = self.off + i * self.stride;
        &mut self.data[start..start + self.cols]
    }

    /// [`MatRef::clipped_row`], mutably: the stored part of a row segment
    /// of the zero-extended window.
    #[inline]
    pub(crate) fn clipped_row_mut(&mut self, i: usize, c0: usize, len: usize) -> &mut [T] {
        if i >= self.rows || c0 >= self.cols {
            return &mut [];
        }
        let cols = self.cols;
        &mut self.row_mut(i)[c0..cols.min(c0 + len)]
    }

    /// Fill the window with zeros (row-wise `fill`, not per-element stores).
    pub fn fill_zero(&mut self) {
        for i in 0..self.rows {
            self.row_mut(i).fill(T::zero());
        }
    }

    /// Copy `src` (same shape) into this window, one `copy_from_slice` per
    /// row.
    pub fn copy_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()));
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Zero-extension copy: `src` (no larger in either dimension) lands in
    /// the top-left corner, everything else becomes zero, row-wise
    /// (`copy_from_slice` plus `fill`). The arena engines pad virtually
    /// instead (see [`crate::arena`]).
    pub fn zero_extend_from(&mut self, src: MatRef<'_, T>) {
        assert!(
            src.rows() <= self.rows && src.cols() <= self.cols,
            "source must fit in the window"
        );
        let (sr, sc) = (src.rows(), src.cols());
        for i in 0..sr {
            let row = self.row_mut(i);
            row[..sc].copy_from_slice(src.row(i));
            row[sc..].fill(T::zero());
        }
        for i in sr..self.rows {
            self.row_mut(i).fill(T::zero());
        }
    }

    /// `self += c * src` for a small integer coefficient `c`, one
    /// [`axpy_row`] call per row (bit-identical to the historical
    /// per-element loop; see the kernel's bit-compatibility note).
    pub fn accumulate_scaled(&mut self, src: MatRef<'_, T>, c: i64) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()));
        if c == 0 {
            return;
        }
        for i in 0..self.rows {
            axpy_row(self.row_mut(i), src.row(i), c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let m: Matrix<i64> = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(2, 3)], 23);
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn identity_and_zero() {
        let i: Matrix<i64> = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1);
        assert_eq!(i[(0, 1)], 0);
        let z: Matrix<i64> = Matrix::zeros(2, 2);
        assert!(z.as_slice().iter().all(|&x| x == 0));
    }

    #[test]
    fn add_sub_scale_transpose() {
        let a = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]);
        let b = Matrix::from_vec(2, 2, vec![5i64, 6, 7, 8]);
        assert_eq!(a.add(&b).as_slice(), &[6, 8, 10, 12]);
        assert_eq!(b.sub(&a).as_slice(), &[4, 4, 4, 4]);
        assert_eq!(a.scale(3).as_slice(), &[3, 6, 9, 12]);
        assert_eq!(a.transpose().as_slice(), &[1, 3, 2, 4]);
    }

    #[test]
    fn views_window_correctly() {
        let m: Matrix<i64> = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let v = m.view();
        let q = v.block(2, 0, 2, 2); // lower-left quadrant
        assert_eq!(q.rows(), 2);
        assert_eq!(q.get(0, 0), 8);
        assert_eq!(q.get(1, 1), 13);
        let inner = q.block(1, 0, 1, 2);
        assert_eq!(inner.get(0, 0), 12);
        assert_eq!(inner.get(0, 1), 13);
    }

    #[test]
    fn rect_grid_blocks_window_correctly() {
        // block (1, 2) of a 4x6 split as a 2x3 grid of 2x2 blocks
        let m: Matrix<i64> = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as i64);
        let v = m.view();
        let blk = v.block(2, 4, 2, 2);
        assert_eq!((blk.rows(), blk.cols()), (2, 2));
        assert_eq!(blk.get(0, 0), 16);
        assert_eq!(blk.get(1, 1), 23);
        // a 1x3 grid's blocks are column strips
        let strip = v.block(0, 2, 4, 2);
        assert_eq!((strip.rows(), strip.cols()), (4, 2));
        assert_eq!(strip.get(3, 0), 20);
        let mut m2: Matrix<i64> = Matrix::zeros(4, 6);
        m2.view_mut().block_mut(2, 4, 2, 2).set(0, 1, 7);
        assert_eq!(m2[(2, 5)], 7);
    }

    #[test]
    fn mutable_views_write_through() {
        let mut m: Matrix<i64> = Matrix::zeros(4, 4);
        {
            let mut v = m.view_mut();
            let mut q = v.block_mut(0, 2, 2, 2); // upper-right quadrant
            q.set(0, 0, 42);
            q.set(1, 1, 7);
        }
        assert_eq!(m[(0, 2)], 42);
        assert_eq!(m[(1, 3)], 7);
        assert_eq!(m[(0, 0)], 0);
    }

    #[test]
    fn accumulate_scaled_applies_coefficient() {
        let src = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]);
        let mut dst = Matrix::from_vec(2, 2, vec![10i64, 10, 10, 10]);
        dst.view_mut().accumulate_scaled(src.view(), -1);
        assert_eq!(dst.as_slice(), &[9, 8, 7, 6]);
        dst.view_mut().accumulate_scaled(src.view(), 2);
        assert_eq!(dst.as_slice(), &[11, 12, 13, 14]);
        dst.view_mut().accumulate_scaled(src.view(), 0);
        assert_eq!(dst.as_slice(), &[11, 12, 13, 14]);
    }

    #[test]
    fn copy_from_and_to_matrix_roundtrip() {
        let m: Matrix<i64> = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let q = m.view().block(2, 2, 2, 2).to_matrix();
        assert_eq!(q.as_slice(), &[10, 11, 14, 15]);
        let mut out: Matrix<i64> = Matrix::zeros(2, 2);
        out.view_mut().copy_from(q.view());
        assert_eq!(out.as_slice(), &[10, 11, 14, 15]);
    }

    #[test]
    fn axpy_row_matches_per_element_add_scaled() {
        use crate::scalar::Scalar;
        let src = [1.5f64, -2.25, 0.125, 7.0];
        for c in [-2i64, -1, 0, 1, 2] {
            let mut fast = [10.0f64, -0.5, 3.25, 0.0];
            let mut slow = fast;
            axpy_row(&mut fast, &src, c);
            for (d, &s) in slow.iter_mut().zip(&src) {
                *d = d.add_scaled(s, c);
            }
            assert_eq!(
                fast.map(f64::to_bits),
                slow.map(f64::to_bits),
                "c={c}: fused kernel reassociated"
            );
        }
    }

    #[test]
    fn axpy_set_row_matches_zero_fill_then_axpy_row() {
        // Signed zeros are where a plain copy or negation would differ:
        // 0 + (-0.0) and 0 - 0.0 are +0.0.
        let src = [1.5f64, -2.25, 0.0, -0.0, 7.0];
        for c in [-2i64, -1, 0, 1, 2] {
            let mut set = [f64::NAN; 5];
            axpy_set_row(&mut set, &src, c);
            let mut acc = [0.0f64; 5];
            axpy_row(&mut acc, &src, c);
            assert_eq!(set.map(f64::to_bits), acc.map(f64::to_bits), "c={c}");
        }
    }

    #[test]
    fn zero_extend_from_pads_with_zeros() {
        let src = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]);
        // dirty destination: every element must be overwritten
        let mut dst = Matrix::from_fn(3, 4, |_, _| 9i64);
        dst.view_mut().zero_extend_from(src.view());
        assert_eq!(dst.as_slice(), &[1, 2, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0]);
        // equal shape degenerates to a plain copy
        let mut same = Matrix::from_fn(2, 2, |_, _| 9i64);
        same.view_mut().zero_extend_from(src.view());
        assert_eq!(same, src);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn out_of_range_block_panics() {
        let m: Matrix<i64> = Matrix::zeros(4, 4);
        let _ = m.view().block(2, 2, 3, 3);
    }

    #[test]
    fn max_abs_diff_f64() {
        let a = Matrix::from_vec(1, 2, vec![1.0f64, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![1.5f64, 1.0]);
        assert!((a.max_abs_diff(&b, |x| x) - 1.0).abs() < 1e-12);
    }
}

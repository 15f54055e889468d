//! Classical Θ(n³) matrix multiplication kernels.
//!
//! Any algorithm that performs the `n³` scalar multiplications — "whether
//! this is done recursively, iteratively, block-wise or any other way"
//! (footnote 3) — has I/O-complexity `Θ(n³/√M)` by Hong–Kung /
//! Irony–Toledo–Tiskin, reproduced here by the `ω₀ = 3` specialization of
//! Theorem 1.3. So one loop per role suffices: [`multiply_naive`] is the
//! correctness oracle, and [`multiply_kernel_into`] is the view-level loop
//! the packed kernel runs on small shapes. The footnote-3 I/O baseline is
//! `multiply_blocked_explicit` in `fastmm-memsim`, which counts the words
//! a tiled run moves on the two-level machine.

use crate::dense::{MatMut, MatRef, Matrix};
use crate::scalar::Scalar;

/// Textbook classical product `C = A * B`, the reference every bitwise
/// witness compares against: each `C[i][j]` adds its `K` products
/// `A[i][l]·B[l][j]` onto zero in ascending `l`. The loops run in `i-k-j`
/// order, streaming rows of `B`.
pub fn multiply_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c: Matrix<T> = Matrix::zeros(m, n);
    for i in 0..m {
        for l in 0..k {
            let aval = a[(i, l)];
            for j in 0..n {
                c[(i, j)] = c[(i, j)].add(aval.mul(b[(l, j)]));
            }
        }
    }
    c
}

/// Output-tile width of [`multiply_kernel_into`]: 64 elements keeps one
/// `C`-row tile plus one `B`-row tile inside an L1 line budget for `f64`
/// while leaving the inner dimension unblocked (see bit-compat note below).
const KERNEL_TILE: usize = 64;

/// Cache-blocked accumulating kernel: `C += A * B` on views, tiled over
/// the output columns with the inner dimension streamed in ascending
/// order — the one view-level classical loop. The packed micro-kernel
/// ([`crate::pack::multiply_packed_into`]) runs it on shapes too small to
/// be worth packing.
///
/// **Bit-compatibility:** per output element the floating-point operations
/// are exactly those of [`multiply_naive`], in the same order (`k`
/// ascending) — tiling only the `i`/`j` loops never reassociates a dot
/// product. Starting from a zeroed `C` the result is therefore
/// bit-identical to `multiply_naive`, which is what lets the determinism
/// suite compare engines bitwise. The speed comes from row
/// slices (no per-element index arithmetic, bounds checks hoisted, inner
/// loop autovectorizes) and from keeping the active `B`/`C` row tiles hot.
pub fn multiply_kernel_into<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for j0 in (0..n).step_by(KERNEL_TILE) {
        let jmax = (j0 + KERNEL_TILE).min(n);
        for i in 0..m {
            let arow = a.row(i);
            for (l, &aval) in arow.iter().enumerate().take(k) {
                let brow = &b.row(l)[j0..jmax];
                let crow = &mut c.row_mut(i)[j0..jmax];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv = cv.add(aval.mul(bv));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ScratchArena;
    use crate::pack::multiply_packed_into;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Matrix::random_int(n, n, 50, &mut rng),
            Matrix::random_int(n, n, 50, &mut rng),
        )
    }

    #[test]
    fn naive_identity() {
        let a = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]);
        let i = Matrix::identity(2);
        assert_eq!(multiply_naive(&a, &i), a);
        assert_eq!(multiply_naive(&i, &a), a);
    }

    #[test]
    fn naive_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1i64, 2, 3, 4, 5, 6]);
        let b = Matrix::from_vec(3, 2, vec![7i64, 8, 9, 10, 11, 12]);
        let c = multiply_naive(&a, &b);
        assert_eq!(c.as_slice(), &[58, 64, 139, 154]);
    }

    /// `A·B` from a zeroed `C` through each view-level loop: this module's
    /// kernel and the packed kernel.
    fn view_products(a: &Matrix<i64>, b: &Matrix<i64>) -> [Matrix<i64>; 2] {
        let mut kernel = Matrix::zeros(a.rows(), b.cols());
        multiply_kernel_into(a.view(), b.view(), &mut kernel.view_mut());
        let mut packed = Matrix::zeros(a.rows(), b.cols());
        let mut arena = ScratchArena::new();
        multiply_packed_into(a.view(), b.view(), &mut packed.view_mut(), &mut arena);
        [kernel, packed]
    }

    #[test]
    fn all_kernels_agree_square() {
        for n in [1usize, 2, 3, 5, 8, 16, 17] {
            let (a, b) = sample(n, n as u64);
            let reference = multiply_naive(&a, &b);
            let [kernel, packed] = view_products(&a, &b);
            assert_eq!(kernel, reference, "kernel n={n}");
            assert_eq!(packed, reference, "packed n={n}");
        }
    }

    #[test]
    fn kernels_agree_rectangular() {
        let mut rng = StdRng::seed_from_u64(99);
        for (m, k, n) in [(5usize, 7usize, 3usize), (9, 20, 13)] {
            let a = Matrix::random_int(m, k, 20, &mut rng);
            let b = Matrix::random_int(k, n, 20, &mut rng);
            let reference = multiply_naive(&a, &b);
            for product in view_products(&a, &b) {
                assert_eq!(product, reference, "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn kernel_matches_ikj_bitwise_f64() {
        // The contract the packed kernel's small-shape path builds on: the
        // view kernel is bit-identical to multiply_naive, including shapes
        // that straddle the tile boundary.
        let mut rng = StdRng::seed_from_u64(123);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (7, 5, 9),
            (64, 64, 64),
            (65, 3, 130),
        ] {
            let a = Matrix::<f64>::random(m, k, &mut rng);
            let b = Matrix::<f64>::random(k, n, &mut rng);
            let mut fast = Matrix::zeros(m, n);
            multiply_kernel_into(a.view(), b.view(), &mut fast.view_mut());
            assert!(fast.bits_eq(&multiply_naive(&a, &b)), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn accumulate_product_accumulates() {
        // C += A·B: a known answer on a dirty C.
        let a = Matrix::from_vec(2, 2, vec![1i64, 0, 0, 1]);
        let b = Matrix::from_vec(2, 2, vec![5i64, 6, 7, 8]);
        let mut c = Matrix::from_vec(2, 2, vec![1i64, 1, 1, 1]);
        multiply_kernel_into(a.view(), b.view(), &mut c.view_mut());
        assert_eq!(c.as_slice(), &[6, 7, 8, 9]);
    }

    #[test]
    fn kernel_accumulates_like_accumulate_product() {
        // A product wider than one output tile added onto a nonzero C equals
        // C + A·B computed separately.
        let mut rng = StdRng::seed_from_u64(42);
        let a = Matrix::random_int(10, 7, 50, &mut rng);
        let b = Matrix::random_int(7, 70, 50, &mut rng);
        let init = Matrix::from_fn(10, 70, |i, j| (i + j) as i64);
        let mut c = init.clone();
        multiply_kernel_into(a.view(), b.view(), &mut c.view_mut());
        assert_eq!(c, init.add(&multiply_naive(&a, &b)));
    }
}

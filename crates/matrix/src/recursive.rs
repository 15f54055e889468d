//! Recursive "Strassen-like" matrix multiplication driven by a
//! [`BilinearScheme`], square or rectangular.
//!
//! Given an `M x K` and a `K x N` operand and a scheme `⟨m,k,n;r⟩`, the
//! engine splits `A` into an `m x k` grid of blocks and `B` into a `k x n`
//! grid, forms the `r` encoded operand pairs block-wise, recurses on each
//! product, and decodes the `m x n` output grid — exactly the recursive
//! structure defined in Section 5.1 of the paper, extended to rectangular
//! base cases per arXiv:1209.2184. Recursion stops at `cutoff`, below which
//! a classical kernel runs (the practical "cut the recursion off and switch
//! to the classical algorithm" hybrid of Section 5.2).
//!
//! [`multiply_scheme`] executes on the zero-allocation arena recursion of
//! [`crate::arena`]: strided views over the original operands, fused
//! encode/decode row kernels, per-level virtual zero-extension on
//! non-divisible shapes, and the packed micro-kernel of [`crate::pack`]
//! as the base case — the same engine the parallel DFS leaves run, so
//! the traffic model `dfs_arena_io_recurrence_mkn` (crate `fastmm-memsim`)
//! models it. It is the only sequential engine; the determinism suite
//! pins it bitwise against a test-only copy-out recursion over
//! `multiply_naive`.
//!
//! Dimensions that stop dividing mid-recursion are zero-padded *per level*
//! up to the next block-grid multiple — virtually, with no padded copy and
//! no crop — so a non-divisible size costs one ring of zeros instead of
//! silently falling back to the Θ(MKN) classical kernel at the top (the
//! historical behavior, fixed here and locked in by `prop_schemes.rs`).

use crate::arena::{child_shape, multiply_into, multiply_split, ScratchArena};
use crate::dense::{MatMut, MatRef, Matrix};
use crate::pack::multiply_packed_into;
use crate::scalar::Scalar;
use crate::scheme::BilinearScheme;

/// Multiply `a * b` (any conformal `M x K` by `K x N`) with `scheme`,
/// recursing while some dimension exceeds `cutoff` and the split makes
/// progress. Non-divisible dimensions are zero-padded per level and the
/// result cropped, so the fast recursion is used at every scale; the
/// classical kernel runs only below `cutoff` (or when the scheme cannot
/// shrink the problem further). Zero-dimension operands are defined: the
/// product is the correctly-shaped all-zero (or empty) matrix, returned
/// without entering the recursion (see [`crate::arena::multiply_into`]).
///
/// ```
/// use fastmm_matrix::classical::multiply_naive;
/// use fastmm_matrix::dense::Matrix;
/// use fastmm_matrix::recursive::multiply_scheme;
/// use fastmm_matrix::scheme::{strassen, strassen_2x2x4};
///
/// // Square scheme on a non-divisible shape: padded per level, exact.
/// let a = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as i64);
/// let b = Matrix::from_fn(5, 9, |i, j| (i as i64) - (j as i64));
/// assert_eq!(multiply_scheme(&strassen(), &a, &b, 1), multiply_naive(&a, &b));
///
/// // Rectangular ⟨2,2,4;14⟩ on its native block grid.
/// let a = Matrix::<i64>::identity(4);
/// let b = Matrix::from_fn(4, 16, |i, j| (i * 16 + j) as i64);
/// assert_eq!(multiply_scheme(&strassen_2x2x4(), &a, &b, 1), b);
/// ```
pub fn multiply_scheme<T: Scalar>(
    scheme: &BilinearScheme,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut arena = ScratchArena::new();
    let mut c = Matrix::zeros(a.rows(), b.cols());
    multiply_into(
        scheme,
        a.view(),
        b.view(),
        &mut c.view_mut(),
        cutoff.max(1),
        &mut arena,
    );
    c
}

/// Multiply with a *uniform, non-stationary* algorithm (paper Section 5.2):
/// a different scheme may be used at each recursion level — e.g. Strassen at
/// the top levels and the classical scheme below, the practical hybrid of
/// Douglas et al. / Huss-Lederman et al. `levels[i]` is applied at depth
/// `i`; when levels run out (or dimensions stop dividing), the classical
/// kernel finishes. Unlike [`multiply_scheme`], this keeps its documented
/// fall-back-on-non-divisible contract (tested below) because a per-level
/// scheme list pins the recursion shape explicitly.
///
/// Runs on the same arena pieces as [`multiply_scheme`] (strided views,
/// fused encode/decode kernels, fused leaves where the next level is the
/// packed base case, zero hot-path allocation once warm), so a uniform
/// level list that recurses as deep as [`multiply_scheme`] does
/// reproduces it bit for bit.
pub fn multiply_non_stationary<T: Scalar>(
    levels: &[&BilinearScheme],
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut arena = ScratchArena::new();
    let mut c = Matrix::zeros(a.rows(), b.cols());
    non_stationary_into(levels, a.view(), b.view(), &mut c.view_mut(), &mut arena);
    c
}

fn non_stationary_into<T: Scalar>(
    levels: &[&BilinearScheme],
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    arena: &mut ScratchArena<T>,
) {
    let shape = (a.rows(), a.cols(), b.cols());
    match levels.split_first() {
        Some((scheme, rest)) if non_stationary_splits(scheme, shape) => {
            let child = child_shape(scheme.dims(), shape);
            let leaf_children = !rest
                .first()
                .is_some_and(|next| non_stationary_splits(next, child));
            multiply_split(scheme, a, b, c, leaf_children, arena, |ta, tb, m, arena| {
                non_stationary_into(rest, ta, tb, m, arena)
            });
        }
        _ => multiply_packed_into(a, b, c, arena),
    }
}

/// Whether the non-stationary recursion splits `shape` with `scheme`:
/// only a divisible shape that one level shrinks (no padding).
fn non_stationary_splits(scheme: &BilinearScheme, (mm, kk, nn): (usize, usize, usize)) -> bool {
    let (bm, bk, bn) = scheme.dims();
    mm.is_multiple_of(bm)
        && kk.is_multiple_of(bk)
        && nn.is_multiple_of(bn)
        && (mm / bm) * (kk / bk) * (nn / bn) < mm * kk * nn
}

/// Exact arithmetic-operation counts of the recursive algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCount {
    /// Scalar multiplications.
    pub mults: u128,
    /// Scalar additions/subtractions.
    pub adds: u128,
}

impl OpCount {
    /// Total flops.
    pub fn total(&self) -> u128 {
        self.mults + self.adds
    }
}

/// Arithmetic count of running `scheme` recursively on `n x n` inputs down
/// to `cutoff`. Square wrapper over [`scheme_op_count_mkn`].
pub fn scheme_op_count(scheme: &BilinearScheme, n: usize, cutoff: usize) -> OpCount {
    scheme_op_count_mkn(scheme, n, n, n, cutoff)
}

/// Arithmetic count of running `scheme` recursively on `M x K` by `K x N`
/// inputs down to `cutoff`, using the SLP addition counts (so Winograd's 15
/// vs Strassen's 18 shows up), with a classical `MN(2K-1)`-flop base case
/// (no flops at all when `K = 0`).
///
/// Mirrors the CDAG tracer's fall-back-on-non-divisible contract (the
/// hybrid the paper analyzes), **not** [`multiply_scheme`]'s pad-per-level
/// execution — the two coincide on divisible shapes; on non-divisible ones
/// evaluate this at the padded dimensions to cost the padded run.
///
/// This realizes the recurrence `T(n) = m(n₀)·T(n/n₀) + O(n²)` of Section
/// 5.1 (and its rectangular analogue), whose solution is `Θ(n^{ω₀})`.
pub fn scheme_op_count_mkn(
    scheme: &BilinearScheme,
    mm: usize,
    kk: usize,
    nn: usize,
    cutoff: usize,
) -> OpCount {
    let (bm, bk, bn) = scheme.dims();
    let divisible = mm.is_multiple_of(bm) && kk.is_multiple_of(bk) && nn.is_multiple_of(bn);
    if mm.max(kk).max(nn) <= cutoff || !divisible || bm * bk * bn == 1 {
        let (mm, kk, nn) = (mm as u128, kk as u128, nn as u128);
        return OpCount {
            mults: mm * kk * nn,
            adds: mm * nn * kk.saturating_sub(1),
        };
    }
    let blk_a = (mm / bm) as u128 * (kk / bk) as u128;
    let blk_b = (kk / bk) as u128 * (nn / bn) as u128;
    let blk_c = (mm / bm) as u128 * (nn / bn) as u128;
    let sub = scheme_op_count_mkn(scheme, mm / bm, kk / bk, nn / bn, cutoff);
    // Each SLP addition is a block-wise addition over the respective
    // operand's block shape; decoding also pays one block-accumulate per W
    // nonzero beyond the first in each output row (already counted by the
    // chain SLP length).
    let adds_here = scheme.enc_a.additions() as u128 * blk_a
        + scheme.enc_b.additions() as u128 * blk_b
        + scheme.dec_c.additions() as u128 * blk_c;
    OpCount {
        mults: scheme.r as u128 * sub.mults,
        adds: scheme.r as u128 * sub.adds + adds_here,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::multiply_naive;
    use crate::scheme::{
        all_schemes, classical_rect, classical_scheme, strassen, strassen_2x2x4, winograd,
        winograd_2x4x2,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn strassen_matches_classical_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 4, 8, 16, 32] {
            let a = Matrix::random_int(n, n, 100, &mut rng);
            let b = Matrix::random_int(n, n, 100, &mut rng);
            assert_eq!(
                multiply_scheme(&strassen(), &a, &b, 1),
                multiply_naive(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn winograd_matches_classical_exact() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [2usize, 4, 8, 16] {
            let a = Matrix::random_int(n, n, 100, &mut rng);
            let b = Matrix::random_int(n, n, 100, &mut rng);
            assert_eq!(
                multiply_scheme(&winograd(), &a, &b, 1),
                multiply_naive(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn all_registry_schemes_multiply_correctly_over_fp() {
        let mut rng = StdRng::seed_from_u64(9);
        for scheme in all_schemes() {
            let (bm, bk, bn) = scheme.dims();
            // two recursion levels of the scheme's own shape
            let (mm, kk, nn) = (bm * bm, bk * bk, bn * bn);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            let got = multiply_scheme(&scheme, &a, &b, 1);
            let want = multiply_naive(&a, &b);
            assert_eq!(got, want, "scheme {}", scheme.name);
        }
    }

    #[test]
    fn rectangular_schemes_multiply_rectangular_operands() {
        let mut rng = StdRng::seed_from_u64(19);
        for scheme in [strassen_2x2x4(), winograd_2x4x2(), classical_rect(2, 2, 3)] {
            let (bm, bk, bn) = scheme.dims();
            for levels in 1..=2u32 {
                let (mm, kk, nn) = (bm.pow(levels), bk.pow(levels), bn.pow(levels));
                let a = Matrix::random_fp(mm, kk, &mut rng);
                let b = Matrix::random_fp(kk, nn, &mut rng);
                assert_eq!(
                    multiply_scheme(&scheme, &a, &b, 1),
                    multiply_naive(&a, &b),
                    "{} levels={levels}",
                    scheme.name
                );
            }
        }
    }

    #[test]
    fn padded_sizes_work() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [3usize, 5, 6, 7, 9, 12] {
            let a = Matrix::random_int(n, n, 30, &mut rng);
            let b = Matrix::random_int(n, n, 30, &mut rng);
            assert_eq!(
                multiply_scheme(&strassen(), &a, &b, 1),
                multiply_naive(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn non_divisible_sizes_recurse_after_padding() {
        // The footgun fix, correctness half: a non-divisible size stays the
        // bilinear identity through the padded levels (exact arithmetic, so
        // this cannot distinguish *which* kernel ran — the path witness is
        // `non_divisible_sizes_take_the_fast_path_not_the_cubic_kernel`).
        let mut rng = StdRng::seed_from_u64(23);
        for (mm, kk, nn) in [(6usize, 6usize, 6usize), (7, 7, 7), (10, 14, 6), (5, 3, 9)] {
            let a = Matrix::random_int(mm, kk, 30, &mut rng);
            let b = Matrix::random_int(kk, nn, 30, &mut rng);
            assert_eq!(
                multiply_scheme(&strassen(), &a, &b, 1),
                multiply_naive(&a, &b),
                "{mm}x{kk}x{nn}"
            );
        }
    }

    #[test]
    fn non_divisible_sizes_take_the_fast_path_not_the_cubic_kernel() {
        // The footgun fix, execution-path half. Over f64, Strassen
        // reassociates the arithmetic, so its bit pattern differs from the
        // classical kernel's on generic inputs. A non-divisible size must be
        // bit-identical to the manually padded-and-cropped *fast* run (what
        // multiply_into's virtual padding computes) and must NOT be
        // bit-identical to multiply_naive — which is exactly what it would be
        // if the engine regressed to the old silent classical fallback.
        let s = strassen();
        let mut rng = StdRng::seed_from_u64(29);
        for (mm, kk, nn) in [(7usize, 7usize, 7usize), (5, 9, 3), (11, 4, 6)] {
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            let engine = multiply_scheme(&s, &a, &b, 1);
            let (pm, pk, pn) = (
                mm.next_multiple_of(2),
                kk.next_multiple_of(2),
                nn.next_multiple_of(2),
            );
            let pad = |m: &Matrix<f64>, rows: usize, cols: usize| {
                Matrix::from_fn(rows, cols, |i, j| {
                    if i < m.rows() && j < m.cols() {
                        m[(i, j)]
                    } else {
                        0.0
                    }
                })
            };
            let padded = multiply_scheme(&s, &pad(&a, pm, pk), &pad(&b, pk, pn), 1);
            let cropped = Matrix::from_fn(mm, nn, |i, j| padded[(i, j)]);
            assert_eq!(
                engine, cropped,
                "{mm}x{kk}x{nn}: must be the padded fast run"
            );
            assert_ne!(
                engine,
                multiply_naive(&a, &b),
                "{mm}x{kk}x{nn}: bit-identical to the cubic kernel ⇒ silent fallback regressed"
            );
        }
    }

    #[test]
    fn rectangular_operands_with_square_schemes() {
        // M x K by K x N through a square scheme: grid blocks are
        // rectangular even though the grid is 2x2.
        let mut rng = StdRng::seed_from_u64(24);
        let a = Matrix::random_int(8, 16, 20, &mut rng);
        let b = Matrix::random_int(16, 4, 20, &mut rng);
        assert_eq!(
            multiply_scheme(&strassen(), &a, &b, 1),
            multiply_naive(&a, &b)
        );
        let a = Matrix::random_int(32, 2, 20, &mut rng);
        let b = Matrix::random_int(2, 32, 20, &mut rng);
        assert_eq!(
            multiply_scheme(&winograd(), &a, &b, 2),
            multiply_naive(&a, &b)
        );
    }

    #[test]
    fn cutoff_switches_to_classical() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::random_int(16, 16, 10, &mut rng);
        let b = Matrix::random_int(16, 16, 10, &mut rng);
        for cutoff in [1usize, 2, 4, 8, 16, 100] {
            assert_eq!(
                multiply_scheme(&strassen(), &a, &b, cutoff),
                multiply_naive(&a, &b),
                "cutoff={cutoff}"
            );
        }
    }

    #[test]
    fn op_count_strassen_mults_are_7_to_the_k() {
        // full recursion to 1x1: mults = 7^lg n
        let s = strassen();
        for k in 1..=6u32 {
            let n = 1usize << k;
            let c = scheme_op_count(&s, n, 1);
            assert_eq!(c.mults, 7u128.pow(k), "n={n}");
        }
    }

    #[test]
    fn op_count_classical_is_cubic() {
        let c2 = classical_scheme(2);
        for k in 1..=5u32 {
            let n = 1usize << k;
            let c = scheme_op_count(&c2, n, 1);
            assert_eq!(c.mults, (n as u128).pow(3), "n={n}");
        }
    }

    #[test]
    fn op_count_rectangular_mults_are_r_to_the_k() {
        let s = strassen_2x2x4();
        for k in 1..=3u32 {
            let c = scheme_op_count_mkn(&s, 2usize.pow(k), 2usize.pow(k), 4usize.pow(k), 1);
            assert_eq!(c.mults, 14u128.pow(k), "level {k}");
        }
        // one level of ⟨2,4,2⟩ on (2,4,2): 14 scalar products, then
        // classical 1x1 base cases
        let d = winograd_2x4x2();
        assert_eq!(scheme_op_count_mkn(&d, 2, 4, 2, 1).mults, 14);
    }

    #[test]
    fn winograd_uses_fewer_adds_than_strassen() {
        let n = 64;
        let s = scheme_op_count(&strassen(), n, 1);
        let w = scheme_op_count(&winograd(), n, 1);
        assert_eq!(s.mults, w.mults);
        assert!(
            w.adds < s.adds,
            "winograd {} !< strassen {}",
            w.adds,
            s.adds
        );
    }

    #[test]
    fn op_count_growth_matches_omega0() {
        // T(2n)/T(n) -> r/ ... for mults exactly r per level
        let s = strassen();
        let c1 = scheme_op_count(&s, 64, 1);
        let c2 = scheme_op_count(&s, 128, 1);
        assert_eq!(c2.mults, 7 * c1.mults);
        let ratio = c2.total() as f64 / c1.total() as f64;
        assert!(
            (ratio - 7.0).abs() < 0.5,
            "asymptotic ratio ≈ 7, got {ratio}"
        );
    }

    #[test]
    fn tensor_scheme_multiplies_fp() {
        let ss = strassen().tensor(&strassen());
        let mut rng = StdRng::seed_from_u64(12);
        let a = Matrix::random_fp(16, 16, &mut rng);
        let b = Matrix::random_fp(16, 16, &mut rng);
        assert_eq!(multiply_scheme(&ss, &a, &b, 1), multiply_naive(&a, &b));
        // one level of ⟨4;49⟩ equals two levels of ⟨2;7⟩
        let direct = multiply_scheme(&strassen(), &a, &b, 1);
        assert_eq!(multiply_scheme(&ss, &a, &b, 1), direct);
    }

    #[test]
    fn non_stationary_mixes_schemes_correctly() {
        // Strassen at the top level, Winograd at the second, classical base:
        // the Section 5.2 class. Exact agreement with the reference.
        let mut rng = StdRng::seed_from_u64(21);
        let s = strassen();
        let w = winograd();
        let c3 = classical_scheme(3);
        let a = Matrix::random_int(12, 12, 40, &mut rng);
        let b = Matrix::random_int(12, 12, 40, &mut rng);
        let want = multiply_naive(&a, &b);
        assert_eq!(
            multiply_non_stationary(&[&s, &w], &a, &b),
            want,
            "2x2 then 2x2"
        );
        assert_eq!(
            multiply_non_stationary(&[&s, &c3], &a, &b),
            want,
            "2x2 then 3x3"
        );
        assert_eq!(
            multiply_non_stationary(&[&c3, &w], &a, &b),
            want,
            "3x3 then 2x2"
        );
        assert_eq!(
            multiply_non_stationary(&[], &a, &b),
            want,
            "no levels = classical"
        );
    }

    #[test]
    fn non_stationary_mixes_rectangular_levels() {
        // ⟨2,2,4⟩ at the top then ⟨2,4,2⟩: A is (4, 8) -> (2, 2) blocks...
        // level dims must divide per level: (2·2, 2·4, 4·2) = (4, 8, 8).
        let mut rng = StdRng::seed_from_u64(25);
        let wide = strassen_2x2x4();
        let deep = winograd_2x4x2();
        let a = Matrix::random_int(4, 8, 40, &mut rng);
        let b = Matrix::random_int(8, 8, 40, &mut rng);
        assert_eq!(
            multiply_non_stationary(&[&wide, &deep], &a, &b),
            multiply_naive(&a, &b)
        );
    }

    #[test]
    fn non_stationary_stops_when_dimension_resists() {
        // 6x6 with a 2x2 scheme then a 2x2 scheme: second level sees 3x3,
        // which is not divisible by 2 — falls back to classical, still exact.
        let mut rng = StdRng::seed_from_u64(22);
        let s = strassen();
        let a = Matrix::random_int(6, 6, 40, &mut rng);
        let b = Matrix::random_int(6, 6, 40, &mut rng);
        assert_eq!(
            multiply_non_stationary(&[&s, &s], &a, &b),
            multiply_naive(&a, &b)
        );
    }

    #[test]
    fn fp_float_agreement() {
        // f64 Strassen result approximates the classical product.
        let mut rng = StdRng::seed_from_u64(13);
        let a = Matrix::<f64>::random(32, 32, &mut rng);
        let b = Matrix::<f64>::random(32, 32, &mut rng);
        let exact = multiply_naive(&a, &b);
        let fast = multiply_scheme(&strassen(), &a, &b, 4);
        assert!(exact.max_abs_diff(&fast, |x| x) < 1e-10);
    }
}

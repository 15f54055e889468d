//! Determinism suite: every engine is **bit-identical** to every other —
//! over `f64` (exact bit-pattern comparison, so any floating-point
//! reassociation fails loudly) and over the prime field `F_p` (exact ring
//! equality) — for every scheme in `all_schemes()`. For `f64` the promise
//! covers every non-NaN result bit for bit and where the NaNs are, not a
//! NaN's own bits: where an input NaN meets one the hardware generates,
//! which comes out may differ between kernels and builds (see the `pack`
//! module's contract). The NaNs in these operands are all generated
//! (`Inf − Inf`), so the witnesses below compare every bit:
//!
//! * the parallel engine vs the sequential engine, across thread counts
//!   1/2/4/8, divisible and non-divisible shapes, and memory budgets that
//!   force every BFS/DFS split the planner can choose;
//! * the arena-backed sequential engine (`multiply_scheme`) vs
//!   [`copy_out_oracle`], a test-only copy-out recursion over
//!   `multiply_naive`, across cutoffs `{1, 8, 64}` — so any reassociation
//!   introduced into the fused encode/decode kernels or the virtual
//!   zero-extension of padded levels fails bitwise;
//! * the same two witnesses on zero-heavy operands (`-0.0` entries, zero
//!   blocks) over the registry, Winograd's dimension permutations and a
//!   sign-flipped Strassen, so the first-touch `0 ⊕ x` writes of encode
//!   and decode keep their signed zeros — and on operands whose last row
//!   and column hold `±Inf`, NaN and `±0` next to the padding, so skipping
//!   the zero-extension's terms keeps every bit;
//! * the non-stationary engine (`multiply_non_stationary`) vs
//!   `multiply_scheme` at the cutoff where both recurse the same number
//!   of levels;
//! * the packed micro-kernel (`pack::multiply_packed_into`, the base case
//!   every engine shares) vs its forced-portable scalar fallback and vs
//!   `multiply_naive`, across `all_schemes()` × {`f64` bit-pattern, `f32`,
//!   `F_p`} × non-divisible shapes — both at the kernel level (the shapes
//!   the engines hand the base case) and through the full engine at
//!   cutoffs `{1, 8, 64}`.
//!
//! This is the contract that makes the engines drop-in replacements for
//! each other: results can be compared, cached, and golden-tested without
//! caring which engine or how many workers ran.
//!
//! Witnesses that compare the packed (fusable) path against the unfused
//! `multiply_naive` (directly or through the oracle) are gated on
//! `not(feature = "fma")`: the opt-in fused multiply-add is a different
//! well-defined result. The dispatch-vs-portable and engine-vs-engine
//! witnesses stay on under the feature — every engine shares the packed
//! base case, and SIMD selection must never change bits, fused or not.

use fastmm_matrix::arena::ScratchArena;
use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::pack::{multiply_packed_into, multiply_packed_into_scalar};
use fastmm_matrix::parallel::{multiply_scheme_parallel, ParallelConfig};
use fastmm_matrix::recursive::{multiply_non_stationary, multiply_scheme};
use fastmm_matrix::scalar::Scalar;
use fastmm_matrix::scheme::{all_schemes, strassen, winograd, BilinearScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Divisible and non-divisible shapes exercising a scheme's block grid:
/// two clean levels, a prime-ish shape that pads at every level, and a
/// skewed rectangle.
fn shapes_for(scheme: &BilinearScheme) -> Vec<(usize, usize, usize)> {
    let (bm, bk, bn) = scheme.dims();
    vec![
        (bm * bm * 2, bk * bk * 2, bn * bn * 2),
        (bm * bm + 1, bk * bk + 1, bn * bn + 1),
        (bm * 3 + 1, bk * 5, bn + 2),
    ]
}

fn assert_f64_bit_identical(scheme: &BilinearScheme, mm: usize, kk: usize, nn: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<f64>::random(mm, kk, &mut rng);
    let b = Matrix::<f64>::random(kk, nn, &mut rng);
    for cutoff in [1usize, 4] {
        let seq = multiply_scheme(scheme, &a, &b, cutoff);
        for threads in THREAD_COUNTS {
            let par =
                multiply_scheme_parallel(scheme, &a, &b, cutoff, &ParallelConfig::new(threads));
            let same = par
                .as_slice()
                .iter()
                .zip(seq.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "{} {mm}x{kk}x{nn} cutoff={cutoff} threads={threads}: f64 bits differ",
                scheme.name
            );
        }
    }
}

fn assert_fp_identical(scheme: &BilinearScheme, mm: usize, kk: usize, nn: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random_fp(mm, kk, &mut rng);
    let b = Matrix::random_fp(kk, nn, &mut rng);
    let seq = multiply_scheme(scheme, &a, &b, 1);
    for threads in THREAD_COUNTS {
        let par = multiply_scheme_parallel(scheme, &a, &b, 1, &ParallelConfig::new(threads));
        assert_eq!(
            par, seq,
            "{} {mm}x{kk}x{nn} threads={threads}: F_p mismatch",
            scheme.name
        );
    }
}

#[test]
fn every_scheme_is_bit_deterministic_over_f64() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            assert_f64_bit_identical(scheme, mm, kk, nn, (i * 100 + j) as u64);
        }
    }
}

#[test]
fn every_scheme_is_deterministic_over_fp() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            assert_fp_identical(scheme, mm, kk, nn, (7000 + i * 100 + j) as u64);
        }
    }
}

/// The test oracle for the sequential engine: a plain copy-out recursion
/// in which every block is copied out with `to_matrix()`, every node
/// heap-allocates its encoded operands and product, a non-divisible level
/// pads element by element, and the base case is `multiply_naive`. It
/// derives pad and split from the block grid itself rather than calling
/// `arena::splits`, so it checks the engine's recursion shape too.
fn copy_out_oracle<T: Scalar>(
    scheme: &BilinearScheme,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
) -> Matrix<T> {
    let (mm, kk, nn) = (a.rows(), a.cols(), b.cols());
    let (bm, bk, bn) = scheme.dims();
    let (pm, pk, pn) = (
        mm.div_ceil(bm) * bm,
        kk.div_ceil(bk) * bk,
        nn.div_ceil(bn) * bn,
    );
    // Stop at the cutoff, or when one level would not shrink the problem.
    if mm.max(kk).max(nn) <= cutoff || (pm / bm) * (pk / bk) * (pn / bn) >= mm * kk * nn {
        return multiply_naive(a, b);
    }
    if (pm, pk, pn) != (mm, kk, nn) {
        let pad = |m: &Matrix<T>, rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |i, j| {
                if i < m.rows() && j < m.cols() {
                    m[(i, j)]
                } else {
                    T::zero()
                }
            })
        };
        let c = copy_out_oracle(scheme, &pad(a, pm, pk), &pad(b, pk, pn), cutoff);
        return Matrix::from_fn(mm, nn, |i, j| c[(i, j)]);
    }
    let (sm, sk, sn) = (mm / bm, kk / bk, nn / bn);
    let a_blocks: Vec<Matrix<T>> = (0..bm * bk)
        .map(|q| a.view().block(q / bk * sm, q % bk * sk, sm, sk).to_matrix())
        .collect();
    let b_blocks: Vec<Matrix<T>> = (0..bk * bn)
        .map(|q| b.view().block(q / bn * sk, q % bn * sn, sk, sn).to_matrix())
        .collect();
    let mut c = Matrix::zeros(mm, nn);
    for l in 0..scheme.r {
        let mut ta = Matrix::zeros(sm, sk);
        for (q, blk) in a_blocks.iter().enumerate() {
            ta.view_mut()
                .accumulate_scaled(blk.view(), scheme.u.get(l, q));
        }
        let mut tb = Matrix::zeros(sk, sn);
        for (q, blk) in b_blocks.iter().enumerate() {
            tb.view_mut()
                .accumulate_scaled(blk.view(), scheme.v.get(l, q));
        }
        let m = copy_out_oracle(scheme, &ta, &tb, cutoff);
        for q in 0..bm * bn {
            c.view_mut()
                .block_mut(q / bn * sm, q % bn * sn, sm, sn)
                .accumulate_scaled(m.view(), scheme.w.get(q, l));
        }
    }
    c
}

/// Cutoffs pinning the engine-vs-oracle witnesses: full recursion, a
/// mid-recursion switch, and the default-sized base case.
const LEGACY_CUTOFFS: [usize; 3] = [1, 8, 64];

#[cfg(not(feature = "fma"))]
#[test]
fn arena_sequential_matches_legacy_golden_f64_bits() {
    // The arena engine (strided views, fused kernels, virtual padding)
    // reproduces the copy-out oracle bit for bit on every registry
    // scheme, including shapes that pad at every level.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((3000 + i * 100 + j) as u64);
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                let arena = multiply_scheme(scheme, &a, &b, cutoff);
                let oracle = copy_out_oracle(scheme, &a, &b, cutoff);
                assert!(
                    arena.bits_eq(&oracle),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: arena f64 bits differ from the oracle",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn arena_sequential_matches_legacy_golden_fp() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((5000 + i * 100 + j) as u64);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                assert_eq!(
                    multiply_scheme(scheme, &a, &b, cutoff),
                    copy_out_oracle(scheme, &a, &b, cutoff),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: F_p mismatch vs the oracle",
                    scheme.name
                );
            }
        }
    }
}

/// An operand for the signed-zero witnesses: uniform entries, with every
/// third one `-0.0`, every seventh `+0.0`, and the top half of the rows
/// all zeros of both signs. Whole grid blocks are then zero at the top
/// levels, so some encodes and products are exactly zero.
fn zero_heavy(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<f64> {
    let mut m = Matrix::<f64>::random(rows, cols, rng);
    for i in 0..rows {
        for j in 0..cols {
            let at = i * cols + j;
            if i < rows.div_ceil(2) || at.is_multiple_of(3) {
                m[(i, j)] = if at.is_multiple_of(2) { -0.0 } else { 0.0 };
            } else if at.is_multiple_of(7) {
                m[(i, j)] = 0.0;
            }
        }
    }
    m
}

/// Strassen with every product feeding `C₁₂` negated (its `U` row and
/// `W` column flip sign), still a correct scheme. Its `C₁₂` row reads
/// `−M₃ − M₅`, and on a zero-heavy `A` both products are exactly zero in
/// the top rows: the first touch must write `0 − 0 = +0`, which the
/// second keeps, where a negated copy would leave `-0.0`.
fn strassen_negated() -> BilinearScheme {
    let s = strassen();
    let (mut u, mut w) = (s.u.clone(), s.w.clone());
    for l in (0..s.r).filter(|&l| s.w.get(1, l) != 0) {
        for q in 0..u.cols() {
            u.set(l, q, -u.get(l, q));
        }
        for q in 0..w.rows() {
            w.set(q, l, -w.get(q, l));
        }
    }
    BilinearScheme::from_coeffs("strassen-negated", 2, u, s.v.clone(), w)
}

/// The registry, Winograd's six dimension permutations (some have a `W`
/// row that starts with −1) and [`strassen_negated`].
fn signed_zero_schemes() -> Vec<BilinearScheme> {
    let mut schemes = all_schemes();
    schemes.extend(winograd().permutations());
    schemes.push(strassen_negated());
    schemes
}

#[cfg(not(feature = "fma"))]
#[test]
fn signed_zeros_match_the_oracle_bitwise() {
    // First-touch encode and decode write `0 ⊕ x`, never a plain copy:
    // the engine must keep the oracle's signed zeros (zero-filled
    // buffers, every term accumulated) on zero-heavy operands.
    for (i, scheme) in signed_zero_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((19000 + i * 100 + j) as u64);
            let a = zero_heavy(mm, kk, &mut rng);
            let b = zero_heavy(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                assert!(
                    multiply_scheme(scheme, &a, &b, cutoff)
                        .bits_eq(&copy_out_oracle(scheme, &a, &b, cutoff)),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: signed zeros differ from the oracle",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn signed_zeros_are_bit_deterministic_across_engines() {
    // The parallel BFS (2 threads) encodes and decodes into zeroed
    // buffers, the sequential engine writes first touches: same bits in
    // both builds.
    for (i, scheme) in signed_zero_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((21000 + i * 100 + j) as u64);
            let a = zero_heavy(mm, kk, &mut rng);
            let b = zero_heavy(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                let par = multiply_scheme_parallel(scheme, &a, &b, cutoff, &ParallelConfig::new(2));
                assert!(
                    par.bits_eq(&multiply_scheme(scheme, &a, &b, cutoff)),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: signed zeros differ across engines",
                    scheme.name
                );
            }
        }
    }
}

/// `m` with its last row and column cycling through `+Inf`, `-Inf`, NaN,
/// `-0.0` and `+0.0`: on [`shapes_for`]'s padded shapes these stored
/// entries sit next to the zero-extension at every level. The NaN is the
/// one the hardware makes (`Inf - Inf`), so every NaN in flight has the
/// same bits and the witness reads padding, not NaN-payload choice.
#[cfg(not(feature = "fma"))]
fn non_finite_edges(mut m: Matrix<f64>) -> Matrix<f64> {
    let nan = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
    let specials = [f64::INFINITY, f64::NEG_INFINITY, nan, -0.0, 0.0];
    let (rows, cols) = (m.rows(), m.cols());
    for j in 0..cols {
        m[(rows - 1, j)] = specials[j % specials.len()];
    }
    for i in 0..rows {
        m[(i, cols - 1)] = specials[(i + 2) % specials.len()];
    }
    m
}

#[cfg(not(feature = "fma"))]
#[test]
fn non_finite_edges_match_the_oracle_at_pad_levels() {
    // Virtual zero-extension skips a fold's later terms past the stored
    // corner instead of adding `+0.0`, and never writes `C`'s padded
    // part: exact for ±Inf, NaN and signed zeros in the stored entries
    // next to the padding, through both engines.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((23000 + i * 100 + j) as u64);
            let a = non_finite_edges(Matrix::<f64>::random(mm, kk, &mut rng));
            let b = non_finite_edges(Matrix::<f64>::random(kk, nn, &mut rng));
            for cutoff in LEGACY_CUTOFFS {
                let oracle = copy_out_oracle(scheme, &a, &b, cutoff);
                let par = multiply_scheme_parallel(scheme, &a, &b, cutoff, &ParallelConfig::new(2));
                for (engine, c) in [
                    ("multiply_scheme", multiply_scheme(scheme, &a, &b, cutoff)),
                    ("parallel", par),
                ] {
                    assert!(
                        c.bits_eq(&oracle),
                        "{} {mm}x{kk}x{nn} cutoff={cutoff}: {engine} differs from the oracle",
                        scheme.name
                    );
                }
            }
        }
    }
}

/// Run the packed kernel (dispatched and forced-portable) on one shape.
fn packed_pair<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let mut arena = ScratchArena::new();
    let mut dispatched = Matrix::zeros(a.rows(), b.cols());
    multiply_packed_into(a.view(), b.view(), &mut dispatched.view_mut(), &mut arena);
    let mut portable = Matrix::zeros(a.rows(), b.cols());
    multiply_packed_into_scalar(a.view(), b.view(), &mut portable.view_mut(), &mut arena);
    (dispatched, portable)
}

#[test]
fn packed_kernel_witnesses_f64_bits() {
    // Kernel-level: on every scheme's divisible and non-divisible shapes
    // (the shapes the engines hand the base case), the dispatched packed
    // kernel, its portable fallback, and multiply_naive agree to the bit.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((9000 + i * 100 + j) as u64);
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            let (dispatched, portable) = packed_pair(&a, &b);
            assert!(
                dispatched.bits_eq(&portable),
                "{} {mm}x{kk}x{nn}: SIMD dispatch changed f64 bits",
                scheme.name
            );
            #[cfg(not(feature = "fma"))]
            assert!(
                dispatched.bits_eq(&multiply_naive(&a, &b)),
                "{} {mm}x{kk}x{nn}: packed f64 bits differ from multiply_naive",
                scheme.name
            );
        }
    }
}

#[test]
fn packed_kernel_witnesses_f32_bits() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((11000 + i * 100 + j) as u64);
            let a = Matrix::<f32>::random_f32(mm, kk, &mut rng);
            let b = Matrix::<f32>::random_f32(kk, nn, &mut rng);
            let (dispatched, portable) = packed_pair(&a, &b);
            assert!(
                dispatched.bits_eq(&portable),
                "{} {mm}x{kk}x{nn}: SIMD dispatch changed f32 bits",
                scheme.name
            );
            #[cfg(not(feature = "fma"))]
            assert!(
                dispatched.bits_eq(&multiply_naive(&a, &b)),
                "{} {mm}x{kk}x{nn}: packed f32 bits differ from multiply_naive",
                scheme.name
            );
        }
    }
}

#[test]
fn packed_kernel_witnesses_fp() {
    // Exact field: packed, portable, and multiply_naive must agree identically, fma
    // or not (Fp never fuses — its mul_add is the trait default).
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((13000 + i * 100 + j) as u64);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            let (dispatched, portable) = packed_pair(&a, &b);
            assert_eq!(
                dispatched, portable,
                "{} {mm}x{kk}x{nn}: SIMD dispatch changed F_p result",
                scheme.name
            );
            assert_eq!(
                dispatched,
                multiply_naive(&a, &b),
                "{} {mm}x{kk}x{nn}: packed F_p differs from multiply_naive",
                scheme.name
            );
        }
    }
}

#[cfg(not(feature = "fma"))]
#[test]
fn packed_engine_matches_legacy_over_f32_bits() {
    // Engine-level f32 leg of the packed-kernel witness matrix: the full
    // recursion with the packed base case vs the copy-out oracle
    // (multiply_naive base case), across the same cutoffs as the f64 branch.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((15000 + i * 100 + j) as u64);
            let a = Matrix::<f32>::random_f32(mm, kk, &mut rng);
            let b = Matrix::<f32>::random_f32(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                let packed = multiply_scheme(scheme, &a, &b, cutoff);
                let oracle = copy_out_oracle(scheme, &a, &b, cutoff);
                assert!(
                    packed.bits_eq(&oracle),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: f32 bits differ from the oracle",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn non_stationary_matches_multiply_scheme_over_f64_bits() {
    // With n = n₀^L·16, multiply_scheme at cutoff 16 and L copies of the
    // scheme both recurse exactly L levels onto the packed kernel, so the
    // two engines agree bit for bit in the default and the fma build.
    for (i, scheme) in all_schemes().iter().filter(|s| s.is_square()).enumerate() {
        for levels in 1..=2u32 {
            let n = scheme.n0().pow(levels) * 16;
            if n > 256 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64((17000 + i * 10) as u64 + u64::from(levels));
            let a = Matrix::<f64>::random(n, n, &mut rng);
            let b = Matrix::<f64>::random(n, n, &mut rng);
            let per_level = vec![scheme; levels as usize];
            assert!(
                multiply_non_stationary(&per_level, &a, &b)
                    .bits_eq(&multiply_scheme(scheme, &a, &b, 16)),
                "{} n={n} levels={levels}: non-stationary f64 bits differ",
                scheme.name
            );
        }
    }
}

#[test]
fn determinism_holds_across_memory_budgets() {
    // The budget moves the BFS/DFS switch point; it must never move a bit
    // of the answer. Sweep from "no BFS level fits" to "everything fits".
    let scheme = strassen();
    let (mm, kk, nn) = (48usize, 48usize, 48usize);
    let mut rng = StdRng::seed_from_u64(99);
    let a = Matrix::<f64>::random(mm, kk, &mut rng);
    let b = Matrix::<f64>::random(kk, nn, &mut rng);
    let seq = multiply_scheme(&scheme, &a, &b, 2);
    for budget in [1usize, 10_000, 100_000, usize::MAX] {
        for threads in [2usize, 8] {
            let cfg = ParallelConfig::new(threads).with_memory_budget(budget);
            let par = multiply_scheme_parallel(&scheme, &a, &b, 2, &cfg);
            let same = par
                .as_slice()
                .iter()
                .zip(seq.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "budget={budget} threads={threads}: bits differ");
        }
    }
}

#[test]
fn repeated_parallel_runs_are_self_identical() {
    // Scheduling noise across runs of the *same* config must not show up
    // either (it cannot, structurally — this is the canary).
    let scheme = strassen();
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::<f64>::random(37, 41, &mut rng);
    let b = Matrix::<f64>::random(41, 29, &mut rng);
    let cfg = ParallelConfig::new(4);
    let first = multiply_scheme_parallel(&scheme, &a, &b, 2, &cfg);
    for _ in 0..3 {
        let again = multiply_scheme_parallel(&scheme, &a, &b, 2, &cfg);
        assert!(first
            .as_slice()
            .iter()
            .zip(again.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

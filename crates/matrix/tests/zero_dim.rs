//! Zero-dimension operand contract: `0×K·K×N`, `M×0·0×N`, and `M×N×0`
//! products are **defined** through every multiply entry point — the
//! correctly-shaped all-zero (or empty) matrix — and the recursion, base
//! kernel, and scratch arena are never entered. Historically these shapes
//! fell through to the packed base kernel, which packed full-size operand
//! panels (and warmed the arena) to produce an empty result.

use fastmm_matrix::arena::{multiply_flat, ScratchArena};
use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::parallel::ParallelConfig;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::all_schemes;

/// The degenerate shapes of the contract, including ones large enough
/// that a base-kernel fallback would have packed real panels.
const SHAPES: [(usize, usize, usize); 8] = [
    (0, 4, 4),
    (4, 0, 4),
    (4, 4, 0),
    (0, 0, 0),
    (0, 33, 33),
    (33, 0, 33),
    (33, 33, 0),
    (5, 0, 9),
];

fn operands(m: usize, k: usize, n: usize) -> (Matrix<f64>, Matrix<f64>) {
    // Nonzero entries wherever a dimension permits, so a wrong kernel
    // entry would produce nonzero output.
    let a = Matrix::from_fn(m, k, |i, j| (i + j) as f64 + 1.0);
    let b = Matrix::from_fn(k, n, |i, j| (i * j) as f64 + 2.0);
    (a, b)
}

#[test]
fn zero_dim_products_are_defined_for_all_registry_schemes() {
    for scheme in all_schemes() {
        for (m, k, n) in SHAPES {
            let (a, b) = operands(m, k, n);
            for cutoff in [1usize, 2, 64] {
                let c = multiply_scheme(&scheme, &a, &b, cutoff);
                assert_eq!((c.rows(), c.cols()), (m, n), "{} shape", scheme.name);
                assert!(
                    c.as_slice().iter().all(|&x| x.to_bits() == 0),
                    "{} {m}x{k}x{n} cutoff={cutoff}: product must be +0.0",
                    scheme.name
                );
                assert_eq!(c, multiply_naive(&a, &b), "{}", scheme.name);
            }
        }
    }
}

#[test]
fn zero_dim_multiply_flat_returns_without_touching_the_arena() {
    for scheme in all_schemes() {
        for (m, k, n) in SHAPES {
            let (a, b) = operands(m, k, n);
            let mut arena = ScratchArena::new();
            let c = multiply_flat(
                &scheme,
                a.as_slice(),
                b.as_slice(),
                (m, k, n),
                2,
                &mut arena,
            );
            assert_eq!(c.len(), m * n, "{}", scheme.name);
            assert!(c.iter().all(|&x| x == 0.0), "{}", scheme.name);
            // The recursion is never entered: no pack buffers, no scratch.
            assert_eq!(
                arena.retained_words(),
                0,
                "{} {m}x{k}x{n}: degenerate multiply must not warm the arena",
                scheme.name
            );
        }
    }
}

#[test]
fn zero_dim_agrees_across_engines_and_thread_counts() {
    let scheme = fastmm_matrix::scheme::strassen();
    for (m, k, n) in SHAPES {
        let (a, b) = operands(m, k, n);
        let seq = multiply_scheme(&scheme, &a, &b, 2);
        for threads in [1usize, 4] {
            let par = fastmm_matrix::parallel::multiply_scheme_parallel(
                &scheme,
                &a,
                &b,
                2,
                &ParallelConfig::new(threads),
            );
            assert!(seq.bits_eq(&par), "{m}x{k}x{n} threads={threads}");
        }
    }
}

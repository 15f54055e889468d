//! Cross-algorithm exact validation over the prime field `F_p`
//! (p = 2^61 − 1): every multiplication algorithm in the workspace must
//! produce *bit-identical* results on the same random inputs.
//!
//! Floating-point comparisons can mask real algebra bugs behind tolerances;
//! over `F_p` the Strassen/Winograd encode–multiply–decode round trip either
//! is the bilinear identity or it is not. Inputs come from a seeded RNG so
//! failures reproduce exactly.

use fastmm_matrix::arena::ScratchArena;
use fastmm_matrix::classical::{multiply_kernel_into, multiply_naive};
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::pack::multiply_packed_into;
use fastmm_matrix::recursive::{multiply_non_stationary, multiply_scheme};
use fastmm_matrix::scalar::Fp;
use fastmm_matrix::scheme::{
    classical_rect, classical_scheme, strassen, strassen_2x2x4, winograd, winograd_2x4x2,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_pair(n: usize, seed: u64) -> (Matrix<Fp>, Matrix<Fp>) {
    random_rect_pair(n, n, n, seed)
}

fn random_rect_pair(mm: usize, kk: usize, nn: usize, seed: u64) -> (Matrix<Fp>, Matrix<Fp>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Matrix::random_fp(mm, kk, &mut rng),
        Matrix::random_fp(kk, nn, &mut rng),
    )
}

#[test]
fn classical_kernels_agree_bit_exactly_over_fp() {
    // The view kernel and the packed kernel against the oracle: n = 8 takes
    // the packed kernel's small-shape fall-through, 16 and 24 pack.
    let mut arena = ScratchArena::new();
    for (n, seed) in [(8usize, 11u64), (16, 12), (24, 13)] {
        let (a, b) = random_pair(n, seed);
        let reference = multiply_naive(&a, &b);
        let mut kernel = Matrix::zeros(n, n);
        multiply_kernel_into(a.view(), b.view(), &mut kernel.view_mut());
        assert_eq!(kernel, reference, "kernel n={n}");
        let mut packed = Matrix::zeros(n, n);
        multiply_packed_into(a.view(), b.view(), &mut packed.view_mut(), &mut arena);
        assert_eq!(packed, reference, "packed n={n}");
    }
}

#[test]
fn strassen_and_winograd_agree_bit_exactly_over_fp() {
    for (n, seed) in [(8usize, 21u64), (16, 22), (32, 23)] {
        let (a, b) = random_pair(n, seed);
        let reference = multiply_naive(&a, &b);
        for cutoff in [1, 2, 4] {
            assert_eq!(
                multiply_scheme(&strassen(), &a, &b, cutoff),
                reference,
                "strassen cutoff={cutoff} n={n}"
            );
            assert_eq!(
                multiply_scheme(&winograd(), &a, &b, cutoff),
                reference,
                "winograd cutoff={cutoff} n={n}"
            );
        }
    }
}

#[test]
fn generic_scheme_engine_agrees_bit_exactly_over_fp() {
    let schemes = [
        ("strassen", strassen()),
        ("winograd", winograd()),
        ("classical2", classical_scheme(2)),
    ];
    for (n, seed) in [(8usize, 31u64), (16, 32)] {
        let (a, b) = random_pair(n, seed);
        let reference = multiply_naive(&a, &b);
        for (name, s) in &schemes {
            assert_eq!(
                multiply_scheme(s, &a, &b, 1),
                reference,
                "{name} n={n} cutoff=1"
            );
        }
    }
    // ⟨3; 27⟩ classical on n divisible by 3^k
    let (a, b) = random_pair(27, 33);
    let reference = multiply_naive(&a, &b);
    assert_eq!(
        multiply_scheme(&classical_scheme(3), &a, &b, 1),
        reference,
        "classical3 n=27"
    );
}

#[test]
fn tensor_and_non_stationary_recursion_agree_over_fp() {
    // Strassen ⊗ Strassen is a ⟨4; 49⟩ scheme: one level covers 4x.
    let (a, b) = random_pair(16, 41);
    let reference = multiply_naive(&a, &b);
    let ss = strassen().tensor(&strassen());
    assert_eq!(
        multiply_scheme(&ss, &a, &b, 1),
        reference,
        "strassen⊗strassen n=16"
    );

    // Mixed per-level schemes: 12 = 2 · 2 · 3 with winograd, strassen,
    // classical3 applied at successive levels.
    let (a, b) = random_pair(12, 42);
    let reference = multiply_naive(&a, &b);
    let (w, s, c3) = (winograd(), strassen(), classical_scheme(3));
    assert_eq!(
        multiply_non_stationary(&[&w, &s, &c3], &a, &b),
        reference,
        "non-stationary [winograd, strassen, classical3] n=12"
    );
}

#[test]
fn padded_engine_agrees_on_awkward_sizes_over_fp() {
    for (n, seed) in [(7usize, 51u64), (10, 52), (13, 53), (20, 54)] {
        let (a, b) = random_pair(n, seed);
        let reference = multiply_naive(&a, &b);
        assert_eq!(
            multiply_scheme(&strassen(), &a, &b, 2),
            reference,
            "padded strassen n={n}"
        );
        assert_eq!(
            multiply_scheme(&winograd(), &a, &b, 2),
            reference,
            "padded winograd n={n}"
        );
    }
}

#[test]
fn rectangular_schemes_agree_bit_exactly_over_fp() {
    // Nontrivial rectangular ⟨m,k,n;r⟩ schemes on their native power shapes,
    // against the classical oracle.
    let cases = [
        (strassen_2x2x4(), 4usize, 4usize, 16usize, 71u64),
        (strassen_2x2x4(), 8, 8, 64, 72),
        (winograd_2x4x2(), 4, 16, 4, 73),
        (winograd_2x4x2(), 8, 64, 8, 74),
        (classical_rect(2, 2, 3), 4, 4, 9, 75),
    ];
    for (scheme, mm, kk, nn, seed) in cases {
        let (a, b) = random_rect_pair(mm, kk, nn, seed);
        let reference = multiply_naive(&a, &b);
        for cutoff in [1usize, 2, 4] {
            assert_eq!(
                multiply_scheme(&scheme, &a, &b, cutoff),
                reference,
                "{} {mm}x{kk}x{nn} cutoff={cutoff}",
                scheme.name
            );
        }
    }
}

#[test]
fn tall_skinny_and_outer_product_shapes_over_fp() {
    // m >> n (tall-skinny), k = 1-ish (outer product), and n >> m (wide):
    // the shapes the rectangular generalization unlocks, pushed through both
    // square and rectangular schemes.
    let shapes = [
        (64usize, 8usize, 4usize, 81u64), // tall-skinny
        (16, 1, 16, 82),                  // pure outer product
        (12, 2, 48, 83),                  // wide with thin inner
        (4, 64, 4, 84),                   // deep inner (dot-product heavy)
    ];
    let schemes = [strassen(), winograd(), strassen_2x2x4(), winograd_2x4x2()];
    for (mm, kk, nn, seed) in shapes {
        let (a, b) = random_rect_pair(mm, kk, nn, seed);
        let reference = multiply_naive(&a, &b);
        for scheme in &schemes {
            assert_eq!(
                multiply_scheme(scheme, &a, &b, 2),
                reference,
                "{} {mm}x{kk}x{nn}",
                scheme.name
            );
        }
    }
}

#[test]
fn non_divisible_rectangular_sizes_through_the_padded_path_over_fp() {
    // Awkward sizes in all three dimensions at once: the per-level pad-crop
    // path must stay the bilinear identity.
    let shapes = [
        (7usize, 5usize, 9usize, 91u64),
        (13, 3, 6, 92),
        (5, 17, 5, 93),
        (9, 10, 11, 94),
    ];
    let schemes = [strassen(), strassen_2x2x4(), winograd_2x4x2()];
    for (mm, kk, nn, seed) in shapes {
        let (a, b) = random_rect_pair(mm, kk, nn, seed);
        let reference = multiply_naive(&a, &b);
        for scheme in &schemes {
            for cutoff in [1usize, 3] {
                assert_eq!(
                    multiply_scheme(scheme, &a, &b, cutoff),
                    reference,
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn distinct_seeds_produce_distinct_inputs() {
    // Guard against a degenerate RNG shim: the validation above is only as
    // strong as the diversity of its inputs.
    let (a1, _) = random_pair(8, 61);
    let (a2, _) = random_pair(8, 62);
    assert_ne!(a1, a2, "seeds 61 and 62 must generate different matrices");
}

//! Property-based harness for bilinear schemes, square and rectangular:
//!
//! * every registered scheme satisfies the (rectangular) Brent equations
//!   and its SLPs match the flat coefficients;
//! * random tensor products and dimension permutations of registered
//!   schemes satisfy them too (the constructive builders are closed over
//!   verification);
//! * the recursive engine agrees **bit-exactly** with the naive kernel over
//!   `F_p` on arbitrary rectangular shapes and cutoffs — including
//!   non-divisible sizes, which must recurse through the padded path rather
//!   than silently falling back to the cubic kernel (the fixed footgun).
//!
//! Run with `PROPTEST_CASES=512` (the nightly CI job) for a deeper sweep.

use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::{all_schemes, BilinearScheme};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_registered_scheme_passes_brent_and_slps() {
    let schemes = all_schemes();
    assert!(schemes.len() >= 8, "registry unexpectedly small");
    let mut rect = 0;
    for s in &schemes {
        s.verify_brent()
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        s.verify_slps()
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        if !s.is_square() {
            rect += 1;
        }
    }
    assert!(rect >= 2, "registry must keep >= 2 rectangular schemes");
}

/// Pool for random composition: registered schemes small enough that the
/// Brent check of a pairwise tensor product stays cheap (mkn ≤ 16).
fn small_pool() -> Vec<BilinearScheme> {
    all_schemes()
        .into_iter()
        .filter(|s| s.bm * s.bk * s.bn <= 16)
        .collect()
}

fn fp_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<fastmm_matrix::scalar::Fp> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random_fp(rows, cols, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_tensor_products_pass_brent(
        i in 0usize..small_pool().len(),
        j in 0usize..small_pool().len(),
    ) {
        let pool = small_pool();
        // tensor() re-verifies Brent at construction; re-check here so a
        // regression in that invariant fails loudly rather than silently.
        let t = pool[i].tensor(&pool[j]);
        prop_assert_eq!(
            t.dims(),
            (
                pool[i].bm * pool[j].bm,
                pool[i].bk * pool[j].bk,
                pool[i].bn * pool[j].bn
            )
        );
        prop_assert!(t.verify_brent().is_ok(), "{}", t.name);
        prop_assert!(t.verify_slps().is_ok(), "{}", t.name);
    }

    #[test]
    fn random_permutations_pass_brent_and_preserve_invariants(
        i in 0usize..all_schemes().len(),
    ) {
        let pool = all_schemes();
        let base = &pool[i];
        for p in base.permutations() {
            prop_assert!(p.verify_brent().is_ok(), "{}", p.name);
            prop_assert_eq!(p.r, base.r);
            prop_assert!((p.omega0() - base.omega0()).abs() < 1e-12, "{}", p.name);
            let mut dims = [p.bm, p.bk, p.bn];
            dims.sort_unstable();
            let mut base_dims = [base.bm, base.bk, base.bn];
            base_dims.sort_unstable();
            prop_assert_eq!(dims, base_dims, "dimension multiset preserved");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multiply_scheme_matches_naive_over_fp_on_random_shapes(
        scheme_idx in 0usize..all_schemes().len(),
        mm in 1usize..=10,
        kk in 1usize..=10,
        nn in 1usize..=10,
        cutoff in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let pool = all_schemes();
        let scheme = &pool[scheme_idx];
        let a = fp_matrix(mm, kk, seed);
        let b = fp_matrix(kk, nn, seed.wrapping_add(1));
        let got = multiply_scheme(scheme, &a, &b, cutoff);
        let want = multiply_naive(&a, &b);
        prop_assert_eq!(got, want, "{} {}x{}x{} cutoff={}", scheme.name, mm, kk, nn, cutoff);
    }

    #[test]
    fn non_divisible_shapes_pad_into_the_fast_recursion(
        mm in 3usize..=17,
        kk in 3usize..=17,
        nn in 3usize..=17,
        seed in any::<u64>(),
    ) {
        // The footgun fix, locked in. Over f64 the bit pattern identifies
        // the execution path: the engine must equal the manually padded and
        // cropped *fast* run exactly (that is what multiply_rec executes),
        // and on non-divisible shapes must differ bitwise from the cubic
        // kernel it used to silently fall back to (Strassen reassociates
        // the f64 arithmetic). F_p exactness covers the pad-crop algebra.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = fastmm_matrix::scheme::strassen();
        let afp = fp_matrix(mm, kk, seed);
        let bfp = fp_matrix(kk, nn, seed.wrapping_add(9));
        prop_assert_eq!(
            multiply_scheme(&s, &afp, &bfp, 1),
            multiply_naive(&afp, &bfp),
            "{}x{}x{}", mm, kk, nn
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let a = Matrix::<f64>::random(mm, kk, &mut rng);
        let b = Matrix::<f64>::random(kk, nn, &mut rng);
        let engine = multiply_scheme(&s, &a, &b, 1);
        let (pm, pk, pn) = (mm.next_multiple_of(2), kk.next_multiple_of(2), nn.next_multiple_of(2));
        let pad = |m: &Matrix<f64>, rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |i, j| {
                if i < m.rows() && j < m.cols() { m[(i, j)] } else { 0.0 }
            })
        };
        let padded = multiply_scheme(&s, &pad(&a, pm, pk), &pad(&b, pk, pn), 1);
        let cropped = Matrix::from_fn(mm, nn, |i, j| padded[(i, j)]);
        prop_assert_eq!(&engine, &cropped, "must be the padded fast run");
        // bit-identical to the cubic kernel ⇒ the silent fallback regressed
        if (pm, pk, pn) != (mm, kk, nn) && mm.max(kk).max(nn) > 2 {
            prop_assert_ne!(&engine, &multiply_naive(&a, &b));
        }
    }
}

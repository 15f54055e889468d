//! Property-based tests: algebraic invariants of the matrix substrate and
//! the fast multiplication schemes, over exact scalars so equality is
//! bit-for-bit.

use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scalar::{Fp, Scalar};
use fastmm_matrix::scheme::{classical_scheme, strassen, winograd};
use proptest::prelude::*;

fn arb_matrix(n: usize) -> impl Strategy<Value = Matrix<i64>> {
    proptest::collection::vec(-100i64..=100, n * n).prop_map(move |v| Matrix::from_vec(n, n, v))
}

fn arb_fp_matrix(n: usize) -> impl Strategy<Value = Matrix<Fp>> {
    proptest::collection::vec(0u64..(1u64 << 61) - 1, n * n)
        .prop_map(move |v| Matrix::from_vec(n, n, v.into_iter().map(Fp::new).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_multiplication_algorithms_agree(a in arb_matrix(8), b in arb_matrix(8)) {
        let reference = multiply_naive(&a, &b);
        prop_assert_eq!(&multiply_scheme(&strassen(), &a, &b, 1), &reference);
        prop_assert_eq!(&multiply_scheme(&winograd(), &a, &b, 1), &reference);
    }

    #[test]
    fn strassen_matches_over_prime_field(a in arb_fp_matrix(8), b in arb_fp_matrix(8)) {
        let reference = multiply_naive(&a, &b);
        prop_assert_eq!(&multiply_scheme(&strassen(), &a, &b, 1), &reference);
        prop_assert_eq!(&multiply_scheme(&winograd(), &a, &b, 1), &reference);
    }

    #[test]
    fn matrix_multiplication_is_associative_fp(
        a in arb_fp_matrix(4),
        b in arb_fp_matrix(4),
        c in arb_fp_matrix(4),
    ) {
        let left = multiply_naive(&multiply_naive(&a, &b), &c);
        let right = multiply_naive(&a, &multiply_naive(&b, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn multiplication_distributes_over_addition(
        a in arb_matrix(6),
        b in arb_matrix(6),
        c in arb_matrix(6),
    ) {
        let left = multiply_naive(&a, &b.add(&c));
        let right = multiply_naive(&a, &b).add(&multiply_naive(&a, &c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn transpose_reverses_products(a in arb_matrix(5), b in arb_matrix(5)) {
        // (AB)^T = B^T A^T
        let left = multiply_naive(&a, &b).transpose();
        let right = multiply_naive(&b.transpose(), &a.transpose());
        prop_assert_eq!(left, right);
    }

    #[test]
    fn padded_sizes_always_correct(n in 2usize..20, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_int(n, n, 50, &mut rng);
        let b = Matrix::random_int(n, n, 50, &mut rng);
        prop_assert_eq!(
            multiply_scheme(&strassen(), &a, &b, 2),
            multiply_naive(&a, &b)
        );
    }

    #[test]
    fn cutoff_never_changes_results(a in arb_matrix(16), b in arb_matrix(16), cutoff in 1usize..20) {
        prop_assert_eq!(multiply_scheme(&strassen(), &a, &b, cutoff), multiply_naive(&a, &b));
    }

    #[test]
    fn tensor_products_of_verified_schemes_verify(
        i in 0usize..3,
        j in 0usize..3,
    ) {
        let pool = [strassen(), winograd(), classical_scheme(2)];
        let t = pool[i].tensor(&pool[j]);
        prop_assert!(t.verify_brent().is_ok(), "{}", t.name);
        prop_assert!(t.verify_slps().is_ok(), "{}", t.name);
    }

    #[test]
    fn fp_field_axioms(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        let (a, b, c) = (Fp::new(x), Fp::new(y), Fp::new(z));
        prop_assert_eq!(a.add(b), b.add(a));
        prop_assert_eq!(a.mul(b), b.mul(a));
        prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        prop_assert_eq!(a.add(a.neg()), Fp::zero());
        prop_assert_eq!(a.mul(Fp::one()), a);
    }

    #[test]
    fn identity_is_neutral(a in arb_matrix(7)) {
        let id = Matrix::identity(7);
        prop_assert_eq!(&multiply_naive(&a, &id), &a);
        prop_assert_eq!(&multiply_naive(&id, &a), &a);
        prop_assert_eq!(&multiply_scheme(&strassen(), &a, &id, 2), &a);
    }
}

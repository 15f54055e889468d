//! Property-based tests: invariants of the two-level memory simulator.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::{strassen, winograd};
use fastmm_memsim::explicit::{
    dfs_io_recurrence, multiply_blocked_explicit, multiply_dfs_explicit,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dfs_measured_always_equals_recurrence(
        seed in any::<u64>(),
        m_exp in 4usize..9,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 32;
        let m = 3 * (1 << m_exp);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_int(n, n, 10, &mut rng);
        let b = Matrix::random_int(n, n, 10, &mut rng);
        for scheme in [strassen(), winograd()] {
            let run = multiply_dfs_explicit(&scheme, &a, &b, m);
            prop_assert_eq!(run.io.total_words() as f64, dfs_io_recurrence(&scheme, n, m));
            prop_assert!(run.high_water <= m);
        }
    }

    #[test]
    fn io_monotone_nonincreasing_in_memory(seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 32;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_int(n, n, 10, &mut rng);
        let b = Matrix::random_int(n, n, 10, &mut rng);
        let mut prev = u64::MAX;
        for m in [48usize, 192, 768, 3072] {
            let io = multiply_dfs_explicit(&strassen(), &a, &b, m).io.total_words();
            prop_assert!(io <= prev, "m={}: {} > {}", m, io, prev);
            prev = io;
        }
        let mut prev_b = u64::MAX;
        for m in [48usize, 192, 768, 3072] {
            let io = multiply_blocked_explicit(&a, &b, m).io.total_words();
            prop_assert!(io <= prev_b, "blocked m={}: {} > {}", m, io, prev_b);
            prev_b = io;
        }
    }

    #[test]
    fn explicit_runs_always_correct(seed in any::<u64>(), m_exp in 4usize..10) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 16;
        let m = 3 * (1 << m_exp);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_int(n, n, 30, &mut rng);
        let b = Matrix::random_int(n, n, 30, &mut rng);
        let want = fastmm_matrix::classical::multiply_naive(&a, &b);
        prop_assert_eq!(&multiply_dfs_explicit(&strassen(), &a, &b, m).c, &want);
        prop_assert_eq!(&multiply_blocked_explicit(&a, &b, m).c, &want);
    }
}

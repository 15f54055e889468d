//! Cross-crate integration: sequential communication (Theorems 1.1/1.3,
//! Equation 1) — matrix algorithms run on the memsim machine and compared
//! to the fastmm-core bound formulas.

use fastmm_core::prelude::*;
use fastmm_memsim::explicit::{
    dfs_io_recurrence, multiply_blocked_explicit, multiply_dfs_explicit,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Matrix::random_int(n, n, 20, &mut rng),
        Matrix::random_int(n, n, 20, &mut rng),
    )
}

#[test]
fn dfs_strassen_io_sandwiched_by_theory() {
    // measured words must lie within a constant factor band of
    // (n/sqrt(M))^{lg7} * M across the whole sweep
    let mut ratios = Vec::new();
    for &m in &[192usize, 768] {
        for &n in &[64usize, 128] {
            let (a, b) = sample(n, (n + m) as u64);
            let run = multiply_dfs_explicit(&strassen(), &a, &b, m);
            let bound = seq_bandwidth_lower_bound(STRASSEN, n, m);
            ratios.push(run.io.total_words() as f64 / bound);
        }
    }
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(lo > 1.0, "measured I/O below the lower bound: {ratios:?}");
    assert!(
        hi / lo < 2.0,
        "ratio band too wide (shape mismatch): {ratios:?}"
    );
}

#[test]
fn blocked_classical_io_matches_hong_kung_shape() {
    let m = 192;
    // Tile side ⌊√(M/3)⌋: one tile each of A, B and C fits in fast memory.
    let t = 8;
    let mut ratios = Vec::new();
    for &n in &[32usize, 64, 128] {
        let (a, b) = sample(n, n as u64);
        let run = multiply_blocked_explicit(&a, &b, m);
        // Each of the (n/t)² C tiles reads n/t tile pairs of A and B and is
        // written once.
        let words = 2 * n.pow(3) / t + n * n;
        assert_eq!(run.io.total_words(), words as u64, "n = {n}");
        ratios.push(run.io.total_words() as f64 / seq_bandwidth_lower_bound(CLASSICAL, n, m));
    }
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(lo > 0.5 && hi / lo < 2.0, "ratios {ratios:?}");
}

#[test]
fn strassen_io_grows_by_7_classical_by_8() {
    // The asymptotic claim (Strassen eventually moves fewer words) shows up
    // at test sizes as the exponent gap: per doubling of n at fixed M, the
    // classical algorithm's words multiply by 8, Strassen's by 7. (The
    // absolute crossover depends on the leading constants — our streaming
    // DFS pays ~8x the blocked algorithm's constant — and lies beyond
    // laptop-scale n, exactly as the paper's asymptotic statement allows.)
    let m = 192;
    let words = |n: usize, strassen_alg: bool| {
        let (a, b) = sample(n, 5);
        if strassen_alg {
            multiply_dfs_explicit(&strassen(), &a, &b, m)
                .io
                .total_words() as f64
        } else {
            multiply_blocked_explicit(&a, &b, m).io.total_words() as f64
        }
    };
    let gs = words(256, true) / words(128, true);
    let gc = words(256, false) / words(128, false);
    assert!((gs - 7.0).abs() < 0.6, "strassen growth {gs}");
    assert!((gc - 8.0).abs() < 0.6, "classical growth {gc}");
    assert!(gs < gc);
}

#[test]
fn measured_equals_recurrence_for_all_schemes() {
    for scheme in [strassen(), winograd(), classical_scheme(2)] {
        let n = 32;
        let (a, b) = sample(n, 7);
        for m in [48usize, 192] {
            let run = multiply_dfs_explicit(&scheme, &a, &b, m);
            let predicted = dfs_io_recurrence(&scheme, n, m);
            assert_eq!(
                run.io.total_words() as f64,
                predicted,
                "{} n={n} m={m}",
                scheme.name
            );
        }
    }
}

#[test]
fn results_are_exact_through_the_machine() {
    // the machine instrumentation must not perturb arithmetic
    let (a, b) = sample(64, 9);
    let want = multiply_naive(&a, &b);
    assert_eq!(multiply_dfs_explicit(&strassen(), &a, &b, 192).c, want);
    assert_eq!(multiply_dfs_explicit(&winograd(), &a, &b, 192).c, want);
    assert_eq!(multiply_blocked_explicit(&a, &b, 192).c, want);
}

#[test]
fn latency_tracks_bandwidth_over_m() {
    // footnote 8: messages ~ words / M for the explicit algorithms
    for &m in &[192usize, 768] {
        let (a, b) = sample(128, 11);
        let run = multiply_dfs_explicit(&strassen(), &a, &b, m);
        let ratio = run.io.total_msgs() as f64 * m as f64 / run.io.total_words() as f64;
        assert!((1.0..4.0).contains(&ratio), "m={m}: msgs*M/words = {ratio}");
    }
}

//! Exactness suite of the distributed-memory execution engine.
//!
//! The acceptance matrix of the distributed engine, in one place:
//!
//! * the **generic** engine ([`fastmm_parsim::exec::dist_multiply`])
//!   gathers bitwise-identically to `multiply_scheme` for **every**
//!   registry scheme at `P ∈ {1, 4, 7, 49}`, on divisible *and*
//!   non-divisible shapes;
//! * **CAPS** gathers bitwise-identically to `multiply_scheme` and its
//!   measured per-rank words/memory match the closed forms *exactly*;
//! * **Cannon** gathers bitwise-identically to its schedule-faithful
//!   replay (classical arithmetic reassociates the inner dimension per
//!   rank, so `multiply_scheme` is matched to rounding, not bits — see
//!   the cannon module docs) and its words match `2(√P−1)·n²/P` exactly.

use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::{all_schemes, strassen};
use fastmm_parsim::cannon::{cannon, cannon_reference, cannon_words_per_rank};
use fastmm_parsim::caps::CapsPlan;
use fastmm_parsim::exec::{dist_multiply, try_dist_caps, try_dist_multiply, DistConfig, DistError};
use fastmm_parsim::machine::MachineConfig;
use fastmm_parsim::{caps, caps_scheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The strong-scaling rank set of the e12 experiment: a serial baseline,
/// a non-power-of-7 count (Cannon-friendly), and the two CAPS counts.
const STRONG_SCALING_P: [usize; 4] = [1, 4, 7, 49];

#[test]
fn generic_engine_bitwise_for_every_registry_scheme_and_p() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    for scheme in all_schemes() {
        let (bm, bk, bn) = scheme.dims();
        // two recursion levels of the scheme's own grid, and a
        // non-divisible variant that forces the pad path at every level
        let shapes = [
            (bm * bm * 2, bk * bk * 2, bn * bn * 2),
            (bm * bm * 2 + 1, bk * bk * 2 + 1, bn * bn * 2 + 1),
        ];
        for shape in shapes {
            let (mm, kk, nn) = shape;
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            let want = multiply_scheme(&scheme, &a, &b, 2);
            for p in STRONG_SCALING_P {
                let cfg = DistConfig::new(p).with_cutoff(2);
                let (c, res) = dist_multiply(&cfg, &scheme, &a, &b);
                assert!(
                    c.bits_eq(&want),
                    "{} {mm}x{kk}x{nn} p={p}: gathered product not bitwise identical",
                    scheme.name
                );
                if p > 1 {
                    assert!(
                        res.stats[0].words_sent > 0,
                        "{} p={p}: the exchange must actually move blocks",
                        scheme.name
                    );
                }
            }
            // sanity anchor against the classical reference
            assert!(want.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-6);
        }
    }
}

#[test]
fn generic_engine_bitwise_across_cutoffs() {
    // The cutoff parameterizes where rank-local recursion bottoms out;
    // bit-identity to the sequential engine must hold at every cutoff.
    let s = strassen();
    let mut rng = StdRng::seed_from_u64(0xC0FF);
    let a = Matrix::<f64>::random(24, 24, &mut rng);
    let b = Matrix::<f64>::random(24, 24, &mut rng);
    for cutoff in [1usize, 3, 8, 64] {
        let want = multiply_scheme(&s, &a, &b, cutoff);
        for p in [4usize, 7] {
            let (c, _) = dist_multiply(&DistConfig::new(p).with_cutoff(cutoff), &s, &a, &b);
            assert!(c.bits_eq(&want), "cutoff={cutoff} p={p}");
        }
    }
}

#[test]
fn caps_bitwise_and_counters_exact_at_strong_scaling_ps() {
    // CAPS covers the power-of-7 side of the strong-scaling set (plus the
    // p = 1 all-DFS degenerate); words and peak memory match the closed
    // forms of CapsPlan exactly on every rank.
    let mut rng = StdRng::seed_from_u64(0xCA75);
    for (p, n, dfs) in [
        (1usize, 28usize, 1usize),
        (7, 28, 0),
        (7, 56, 1),
        (49, 28, 0),
    ] {
        let plan = CapsPlan::new(p, n, dfs).unwrap();
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        let (c, res) = caps(MachineConfig::new(p), &plan, &a, &b);
        let want = multiply_scheme(&strassen(), &a, &b, plan.local_cutoff());
        assert!(c.bits_eq(&want), "caps p={p} n={n} dfs={dfs}");
        for (r, st) in res.stats.iter().enumerate() {
            assert_eq!(
                st.words_sent,
                plan.words_sent_per_rank(),
                "p={p} n={n} dfs={dfs} rank {r}: words sent"
            );
            assert_eq!(
                st.words_received,
                plan.words_sent_per_rank(),
                "p={p} n={n} dfs={dfs} rank {r}: words received"
            );
            assert_eq!(
                st.mem_high_water as u64,
                plan.projected_peak_words_per_rank(),
                "p={p} n={n} dfs={dfs} rank {r}: peak memory"
            );
        }
    }
}

#[test]
fn zero_dimension_operands_gather_the_empty_product() {
    // The product of a zero-dimension pair is empty (M or N = 0) or all
    // zeros (K = 0): the generic engine gathers exactly that, with no
    // rank failing, and CAPS refuses n = 0 when it plans.
    let s = strassen();
    let cfg = DistConfig::new(7);
    for (m, k, n) in [(0usize, 0usize, 0usize), (5, 0, 4), (0, 3, 4)] {
        let a = Matrix::from_fn(m, k, |i, j| (i * k + j) as f64 + 0.5);
        let b = Matrix::from_fn(k, n, |i, j| (i * n + j) as f64 - 0.5);
        let (c, _) =
            try_dist_multiply(&cfg, &s, &a, &b).unwrap_or_else(|e| panic!("{m}x{k}x{n}: {e}"));
        let want = multiply_scheme(&s, &a, &b, cfg.resolved_cutoff());
        assert!(c.bits_eq(&want), "{m}x{k}x{n}: gather differs");
    }
    let empty = Matrix::<f64>::zeros(0, 0);
    match try_dist_caps(&cfg, &s, &empty, &empty) {
        Err(DistError::Plan(msg)) => assert!(msg.contains("n=0"), "{msg}"),
        other => panic!(
            "n = 0 must fail planning, got {:?}",
            other.map(|(c, _)| c.rows())
        ),
    }
}

#[test]
fn caps_refuses_operands_it_would_crop() {
    // CAPS lays out two n × n operands; a non-square or non-conformal
    // pair is a planning error naming both shapes, never a product of
    // their leading n × n blocks.
    let s = strassen();
    let cfg = DistConfig::new(7);
    for ((ar, ac), (br, bc)) in [((28, 30), (28, 28)), ((28, 28), (28, 33))] {
        let a = Matrix::from_fn(ar, ac, |i, j| (i * ac + j) as f64);
        let b = Matrix::from_fn(br, bc, |i, j| (i * bc + j) as f64);
        match try_dist_caps(&cfg, &s, &a, &b) {
            Err(DistError::Plan(msg)) => {
                assert!(msg.contains(&format!("{ar}x{ac} times {br}x{bc}")), "{msg}")
            }
            other => panic!(
                "{ar}x{ac} * {br}x{bc} must fail planning, got {:?}",
                other.map(|(c, _)| (c.rows(), c.cols()))
            ),
        }
    }
}

#[test]
fn caps_and_generic_engine_agree_bitwise() {
    // Two completely different distributions (layout-optimal shares vs
    // leader-centric exchange) of the same arithmetic: both must equal
    // the sequential engine, hence each other, bit for bit.
    let s = strassen();
    let n = 28;
    let mut rng = StdRng::seed_from_u64(0xA9EE);
    let a = Matrix::<f64>::random(n, n, &mut rng);
    let b = Matrix::<f64>::random(n, n, &mut rng);
    let plan = CapsPlan::new(7, n, 0).unwrap();
    let cutoff = plan.local_cutoff();
    let (c_caps, _) = caps_scheme(MachineConfig::new(7), &s, &plan, &a, &b);
    let (c_gen, _) = dist_multiply(&DistConfig::new(7).with_cutoff(cutoff), &s, &a, &b);
    assert!(c_caps.bits_eq(&c_gen));
}

#[test]
fn cannon_bitwise_replay_and_exact_words_at_strong_scaling_ps() {
    // Cannon covers the perfect-square side of the strong-scaling set.
    let mut rng = StdRng::seed_from_u64(0xCA2204);
    for (p, n) in [(1usize, 8usize), (4, 8), (4, 14), (49, 28)] {
        let q = (p as f64).sqrt() as usize;
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        let (c, res) = cannon(MachineConfig::new(p), &a, &b);
        assert!(
            c.bits_eq(&cannon_reference(&a, &b, q)),
            "p={p} n={n}: cannon diverged from its replay"
        );
        assert!(c.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9);
        for (r, st) in res.stats.iter().enumerate() {
            assert_eq!(
                st.words_sent,
                cannon_words_per_rank(p, n),
                "p={p} n={n} rank {r}: 2(sqrt(p)-1)n^2/p sent"
            );
            assert_eq!(st.words_received, cannon_words_per_rank(p, n));
        }
    }
}

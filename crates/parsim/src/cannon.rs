//! Cannon's 2D algorithm (Cannon 1969) — the classical "linear space"
//! baseline of Table I: memory `M = Θ(n²/p)`, bandwidth `Θ(n²/√p)`,
//! attaining the classical 2D lower bound `Ω(n²/p^{1/2})`.
//!
//! The initial distribution is *pre-skewed*: rank `(i, j)` starts with
//! `A_{i,(i+j) mod q}` and `B_{(i+j) mod q,j}` — the placement Cannon's
//! alignment phase would produce. Initial data layout is free in the
//! Section 1.1 model (each processor may start with any balanced share),
//! so with the skew folded into the layout every rank's communication is
//! exactly the `q−1` shift rounds:
//!
//! > words sent per rank = words received per rank
//! > `= 2(q−1)·(n/q)² = 2(√p − 1)·n²/p`
//!
//! — an *exact* closed form ([`cannon_words_per_rank`]), not an
//! asymptotic, asserted rank-by-rank in tests and by e12 in the CI
//! `smoke` job's `repro_all` run.
//!
//! ## Bitwise witness
//!
//! Rank `(i, j)` accumulates its `C` block over `k = (i+j), (i+j)+1, …`
//! (mod `q`) — a per-rank *rotation* of the block-inner dimension, so the
//! floating-point association differs from the canonical ascending-`k`
//! classical product (and from `multiply_scheme`, which reassociates
//! further). The determinism witness for Cannon is therefore the
//! schedule-faithful sequential replay [`cannon_reference`]: the same
//! block order and the same kernel, executed without any communication.
//! Gathered output must equal it **bitwise** (asserted in tests and e12);
//! agreement with `multiply_scheme` holds to rounding and is asserted
//! with a tolerance.

use crate::dist::{assemble_blocks, block_of, exact_sqrt, local_matmul_acc};
use crate::machine::{run_spmd, MachineConfig, SpmdResult};
use fastmm_matrix::dense::Matrix;

/// Per-rank output: grid coordinates and the local `C` block.
pub type CBlock = (usize, usize, Vec<f64>);

const TAG_SHIFT_A: u64 = 1000;
const TAG_SHIFT_B: u64 = 2000;

/// Exact words sent (= words received) per rank: `2(√p − 1)·n²/p`.
/// Every rank moves exactly this much — Cannon is perfectly balanced once
/// the skew is part of the initial layout.
pub fn cannon_words_per_rank(p: usize, n: usize) -> u64 {
    let q = exact_sqrt(p);
    let bs = n / q;
    (2 * (q - 1) * bs * bs) as u64
}

/// Schedule-faithful sequential replay of Cannon's arithmetic: block
/// `(i, j)` accumulates `A_{i,k}·B_{k,j}` for `k = (i+j+s) mod q`,
/// `s = 0, 1, …, q−1`, with the same `ikj` block kernel the ranks run.
/// The distributed run's gathered product is bitwise identical to this.
pub fn cannon_reference(a: &Matrix<f64>, b: &Matrix<f64>, q: usize) -> Matrix<f64> {
    let n = a.rows();
    let bs = n / q;
    let mut blocks = Vec::with_capacity(q * q);
    for i in 0..q {
        for j in 0..q {
            let mut c_loc = vec![0.0f64; bs * bs];
            for s in 0..q {
                let k = (i + j + s) % q;
                let a_loc = block_of(a, q, i, k);
                let b_loc = block_of(b, q, k, j);
                local_matmul_acc(&mut c_loc, &a_loc, &b_loc, bs);
            }
            blocks.push((i, j, c_loc));
        }
    }
    assemble_blocks(n, q, &blocks)
}

/// Run Cannon's algorithm on a `√p x √p` grid. `n` must be divisible by
/// `√p`. Returns the assembled product and the run statistics.
pub fn cannon(
    cfg: MachineConfig,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> (Matrix<f64>, SpmdResult<CBlock>) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n);
    let q = exact_sqrt(cfg.p);
    assert_eq!(n % q, 0, "n must divide the grid");
    let bs = n / q;

    let res = run_spmd(cfg, |rank| {
        let (i, j) = (rank.id / q, rank.id % q);
        let at = |ri: usize, rj: usize| ri * q + rj;
        // pre-skewed initial distribution (free in the model): rank (i,j)
        // owns A_{i,(i+j) mod q} and B_{(i+j) mod q,j}
        let mut a_loc = block_of(a, q, i, (i + j) % q);
        let mut b_loc = block_of(b, q, (i + j) % q, j);
        let mut c_loc = vec![0.0f64; bs * bs];
        rank.track_alloc(3 * bs * bs);

        for step in 0..q {
            let flops = local_matmul_acc(&mut c_loc, &a_loc, &b_loc, bs);
            rank.compute(flops);
            if step + 1 < q {
                // shift A left by one, B up by one
                let a_dst = at(i, (j + q - 1) % q);
                let a_src = at(i, (j + 1) % q);
                a_loc = rank.sendrecv(a_dst, TAG_SHIFT_A + step as u64, a_loc, a_src);
                let b_dst = at((i + q - 1) % q, j);
                let b_src = at((i + 1) % q, j);
                b_loc = rank.sendrecv(b_dst, TAG_SHIFT_B + step as u64, b_loc, b_src);
            }
        }
        (i, j, c_loc)
    });
    let c = assemble_blocks(n, q, &res.outputs);
    (c, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmm_matrix::classical::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Matrix::random(n, n, &mut rng),
            Matrix::random(n, n, &mut rng),
        )
    }

    #[test]
    fn cannon_is_correct() {
        for (p, n) in [(1usize, 4usize), (4, 8), (9, 12), (16, 16)] {
            let (a, b) = sample(n, p as u64);
            let (c, _) = cannon(MachineConfig::new(p), &a, &b);
            let expect = multiply_naive(&a, &b);
            assert!(c.max_abs_diff(&expect, |x| x) < 1e-9, "p={p} n={n}");
        }
    }

    #[test]
    fn cannon_gather_is_bitwise_identical_to_replay() {
        // The determinism witness: communication and distribution change
        // nothing about the arithmetic — the gathered product equals the
        // schedule-faithful sequential replay bit for bit.
        for (p, n) in [(4usize, 8usize), (9, 12), (16, 16), (49, 28)] {
            let q = exact_sqrt(p);
            let (a, b) = sample(n, 100 + p as u64);
            let (c, _) = cannon(MachineConfig::new(p), &a, &b);
            assert!(
                c.bits_eq(&cannon_reference(&a, &b, q)),
                "p={p} n={n}: gathered product diverged from the replay"
            );
        }
    }

    #[test]
    fn cannon_words_match_closed_form_exactly_per_rank() {
        // The exactness contract: every rank sends and receives exactly
        // 2(√p − 1)·n²/p words — no skew residue, no imbalance.
        for (p, n) in [(4usize, 8usize), (9, 12), (16, 16), (49, 28)] {
            let (a, b) = sample(n, 7 * p as u64);
            let (_, res) = cannon(MachineConfig::new(p), &a, &b);
            let want = cannon_words_per_rank(p, n);
            let q = exact_sqrt(p);
            let bs = n / q;
            assert_eq!(want, (2 * (q - 1) * bs * bs) as u64);
            for (r, s) in res.stats.iter().enumerate() {
                assert_eq!(s.words_sent, want, "p={p} n={n} rank {r} sent");
                assert_eq!(s.words_received, want, "p={p} n={n} rank {r} received");
                assert_eq!(s.msgs_sent as usize, 2 * (q - 1), "p={p} rank {r} msgs");
            }
        }
    }

    #[test]
    fn cannon_bandwidth_scales_as_n2_over_sqrt_p() {
        // 2(√p−1)n²/p per direction: p = 4 → n²/2, p = 16 → 3n²/8; the
        // classical 2D shape n²/√p up to the (√p−1)/√p factor.
        let n = 24;
        let (a, b) = sample(n, 7);
        let (_, r4) = cannon(MachineConfig::new(4), &a, &b);
        let (_, r16) = cannon(MachineConfig::new(16), &a, &b);
        assert_eq!(r4.max_words(), 2 * cannon_words_per_rank(4, n));
        assert_eq!(r16.max_words(), 2 * cannon_words_per_rank(16, n));
        let ratio = r4.max_words() as f64 / r16.max_words() as f64;
        assert!((ratio - 4.0 / 3.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn cannon_memory_is_3_blocks() {
        let n = 16;
        let (a, b) = sample(n, 9);
        let (_, res) = cannon(MachineConfig::new(16), &a, &b);
        assert_eq!(res.max_memory(), 3 * 4 * 4);
    }

    #[test]
    fn cannon_flops_total_is_2n3() {
        let n = 12;
        let (a, b) = sample(n, 11);
        let (_, res) = cannon(MachineConfig::new(9), &a, &b);
        assert_eq!(res.total_flops(), 2 * (n as u64).pow(3));
    }
}

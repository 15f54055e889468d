//! The classical rows of Table I in one SPMD body: Cannon's algorithm
//! (Cannon 1969) on `c` replicated layers, which is the 2.5D algorithm
//! (Solomonik–Demmel 2011). `p = q²·c` ranks form `c` layers of a
//! `q × q` grid, and `c` spans the table's classical regimes:
//!
//! * `c = 1` is Cannon's 2D algorithm, the "linear space" baseline:
//!   memory `M = Θ(n²/p)`, bandwidth `Θ(n²/√p)`, attaining the classical
//!   2D lower bound `Ω(n²/p^{1/2})`;
//! * `1 ≤ c ≤ p^{1/3}` trades memory `Θ(c·n²/p)` for bandwidth
//!   `Θ(n²/√(c·p))`;
//! * `c = p^{1/3}` is the 3D regime (Dekel–Nassimi–Sahni 1981;
//!   Aggarwal–Chandra–Snir 1990): memory and bandwidth `Θ(n²/p^{2/3})`,
//!   a `p^{1/6}` improvement over 2D.
//!
//! The initial distribution is *pre-skewed*: rank `(i, j)` of layer 0
//! starts with `A_{i,(i+j) mod q}` and `B_{(i+j) mod q,j}` — the placement
//! Cannon's alignment phase would produce. Initial data layout is free in
//! the Section 1.1 model (each processor may start with any balanced
//! share). Layer `l` starts `s = l·q/c` steps into Cannon's rotation, so
//! its rank `(i, j)` needs the `A` block of layer-0 rank
//! `(i, (j+s) mod q)` and the `B` block of `((i+s) mod q, j)`. Each
//! layer-0 block therefore goes out in one binomial broadcast
//! ([`Rank::bcast`](crate::machine::Rank::bcast)) straight to the one rank
//! per layer that needs it: the skew rides the replication and costs no
//! exchange of its own. Each layer then runs its `q/c` multiply steps with
//! one shift round between consecutive steps, and each `(i, j)` fiber
//! sum-reduces its partial `C` blocks onto layer 0. At every `c` a rank
//! holds three blocks: its `A` and `B` blocks (the replicas) and its `C`.
//!
//! At `c = 1` the broadcast and the reduction each span one rank and send
//! nothing, so every rank's communication is exactly the `q−1` shift
//! rounds:
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
//! with a tolerance. At `c > 1` the reduction sums the layers' partial
//! blocks, a further reassociation, so those runs are checked to rounding.

use crate::machine::{run_spmd, MachineConfig, SpmdResult};
use fastmm_matrix::dense::Matrix;

/// Per-rank output: grid coordinates and the local `C` block (empty above
/// layer 0, whose partial blocks went into the reduction).
pub type CBlock = (usize, usize, Vec<f64>);

const TAG_BCAST_A: u64 = 1;
const TAG_BCAST_B: u64 = 2;
const TAG_REDUCE_C: u64 = 3;
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

/// Run Cannon's algorithm on a `√p x √p` grid: [`multiply_25d`] on one
/// layer. `n` must be divisible by `√p`. Returns the assembled product
/// and the run statistics.
pub fn cannon(
    cfg: MachineConfig,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> (Matrix<f64>, SpmdResult<CBlock>) {
    multiply_25d(cfg, 1, a, b)
}

/// The 2.5D algorithm: Cannon on `c` replicated layers of a `q x q` grid,
/// `p = q²·c`, with `c` dividing `q` and `q` dividing `n`. `c = 1` is
/// Cannon, `c = p^{1/3}` the 3D regime. Rank `l·q² + i·q + j` is grid
/// position `(i, j)` of layer `l`. Returns the assembled product and the
/// run statistics.
pub fn multiply_25d(
    cfg: MachineConfig,
    c: usize,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> (Matrix<f64>, SpmdResult<CBlock>) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n);
    assert!(c >= 1 && cfg.p.is_multiple_of(c), "c must divide p");
    let q = exact_sqrt(cfg.p / c);
    assert!(q.is_multiple_of(c), "c must divide q = sqrt(p/c)");
    assert_eq!(n % q, 0, "n must divide the grid");
    let bs = n / q;
    let steps = q / c;

    let res = run_spmd(cfg, |rank| {
        let (l, i, j) = (rank.id / (q * q), rank.id / q % q, rank.id % q);
        let at = |l: usize, i: usize, j: usize| (l * q + i) * q + j;
        // Layer ll starts ll·steps into the rotation, so the rank of layer
        // ll that starts with this rank's A block sits (l − ll)·steps
        // columns to the right, and the one with its B block as many rows
        // down; on layer 0 (the broadcast root) that rank owns the block.
        let offset = |x: usize, ll: usize| (x + q + l * steps - ll * steps) % q;
        let a_fiber: Vec<usize> = (0..c).map(|ll| at(ll, i, offset(j, ll))).collect();
        let b_fiber: Vec<usize> = (0..c).map(|ll| at(ll, offset(i, ll), j)).collect();
        // pre-skewed initial distribution (free in the model): layer-0
        // rank (i,j) owns A_{i,(i+j) mod q} and B_{(i+j) mod q,j}
        let k = (i + j) % q;
        let a_seed = (l == 0).then(|| block_of(a, q, i, k));
        let b_seed = (l == 0).then(|| block_of(b, q, k, j));
        let mut a_loc = rank.bcast(&a_fiber, TAG_BCAST_A, a_seed);
        let mut b_loc = rank.bcast(&b_fiber, TAG_BCAST_B, b_seed);
        let mut c_loc = vec![0.0f64; bs * bs];
        rank.track_alloc(3 * bs * bs);

        for step in 0..steps {
            let flops = local_matmul_acc(&mut c_loc, &a_loc, &b_loc, bs);
            rank.compute(flops);
            if step + 1 < steps {
                // shift A left by one, B up by one, within the layer
                let a_dst = at(l, i, (j + q - 1) % q);
                let a_src = at(l, i, (j + 1) % q);
                a_loc = rank.sendrecv(a_dst, TAG_SHIFT_A + step as u64, a_loc, a_src);
                let b_dst = at(l, (i + q - 1) % q, j);
                let b_src = at(l, (i + 1) % q, j);
                b_loc = rank.sendrecv(b_dst, TAG_SHIFT_B + step as u64, b_loc, b_src);
            }
        }

        // sum the layers' partial C blocks onto layer 0
        let c_fiber: Vec<usize> = (0..c).map(|ll| at(ll, i, j)).collect();
        let c_loc = rank.reduce_sum(&c_fiber, TAG_REDUCE_C, c_loc);
        (i, j, c_loc.unwrap_or_default())
    });
    (assemble_blocks(n, q, &res.outputs), res)
}

/// Extract block `(bi, bj)` of a `q x q` block grid as a flat row-major
/// vector. `n` must be divisible by `q`.
fn block_of(m: &Matrix<f64>, q: usize, bi: usize, bj: usize) -> Vec<f64> {
    let n = m.rows();
    assert_eq!(m.cols(), n);
    assert_eq!(n % q, 0, "dimension must divide the grid");
    let bs = n / q;
    let mut out = Vec::with_capacity(bs * bs);
    for i in 0..bs {
        for j in 0..bs {
            out.push(m[(bi * bs + i, bj * bs + j)]);
        }
    }
    out
}

/// Assemble a matrix from `(bi, bj, block)` triples of a `q x q` grid,
/// skipping empty blocks.
fn assemble_blocks(n: usize, q: usize, blocks: &[CBlock]) -> Matrix<f64> {
    let bs = n / q;
    let mut m = Matrix::zeros(n, n);
    for (bi, bj, data) in blocks.iter().filter(|(_, _, d)| !d.is_empty()) {
        assert_eq!(data.len(), bs * bs);
        for i in 0..bs {
            for j in 0..bs {
                m[(bi * bs + i, bj * bs + j)] = data[i * bs + j];
            }
        }
    }
    m
}

/// `c += a * b` on flat row-major `bs x bs` blocks: the rank-local
/// product. Returns the flop count.
fn local_matmul_acc(c: &mut [f64], a: &[f64], b: &[f64], bs: usize) -> u64 {
    assert_eq!(a.len(), bs * bs);
    assert_eq!(b.len(), bs * bs);
    assert_eq!(c.len(), bs * bs);
    for i in 0..bs {
        for k in 0..bs {
            let av = a[i * bs + k];
            for j in 0..bs {
                c[i * bs + j] += av * b[k * bs + j];
            }
        }
    }
    (2 * bs * bs * bs) as u64
}

/// Integer square root for perfect squares; panics otherwise.
fn exact_sqrt(p: usize) -> usize {
    let q = (p as f64).sqrt().round() as usize;
    assert_eq!(q * q, p, "{p} is not a perfect square");
    q
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

    #[test]
    fn threed_is_correct() {
        // c = p^{1/3}: q = c, one multiply step per layer, no shifts
        for (p, c, n) in [(8usize, 2usize, 8usize), (27, 3, 12)] {
            let (a, b) = sample(n, p as u64);
            let (cm, _) = multiply_25d(MachineConfig::new(p), c, &a, &b);
            assert!(
                cm.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9,
                "p={p}"
            );
        }
    }

    #[test]
    fn two_five_d_is_correct() {
        // (p, c, n): q = sqrt(p/c), need c | q
        for (p, c, n) in [
            (8usize, 2usize, 8usize),
            (16, 1, 8),
            (32, 2, 16),
            (72, 2, 12),
        ] {
            let (a, b) = sample(n, (p + c) as u64);
            let (cm, _) = multiply_25d(MachineConfig::new(p), c, &a, &b);
            assert!(
                cm.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9,
                "p={p} c={c} n={n}"
            );
        }
    }

    #[test]
    fn replication_cuts_bandwidth() {
        // 2.5D with c=2 should move fewer words per rank than Cannon on the
        // same p (shift count divided by c).
        let n = 32;
        let (a, b) = sample(n, 5);
        let p = 32; // c=2 -> q=4
        let (_, r_c2) = multiply_25d(MachineConfig::new(p), 2, &a, &b);
        let (_, r_c1) = multiply_25d(MachineConfig::new(16), 1, &a, &b);
        // normalize per-rank words by block count difference: same n, grids 4 vs 4
        // both grids are q=4, so block sizes match; c=2 halves the shifts
        let w2 = r_c2.max_words() as f64;
        let w1 = r_c1.max_words() as f64;
        assert!(w2 < w1, "c=2: {w2} !< c=1: {w1}");
    }

    #[test]
    fn replicated_layers_hold_three_blocks_and_pay_no_skew() {
        // Per block of bs² words, the busiest rank is a layer-0 rank: it
        // sends ⌈log₂ c⌉ copies of each of its two blocks down the binomial
        // broadcast, shifts 2 blocks out and 2 in per round, and receives
        // ⌈log₂ c⌉ partial C blocks in the reduction. No skew exchange.
        // 3D, p = 64, c = 4: q = 4, bs² = 441, one step per layer, so
        // 2·2 + 0 + 2 = 6 blocks.
        let (a, b) = sample(84, 2);
        let (_, r) = multiply_25d(MachineConfig::new(64), 4, &a, &b);
        assert_eq!((r.max_words(), r.max_memory()), (2646, 1323));
        // 2.5D, p = 32, c = 2: q = 4, bs² = 576, two steps per layer, so
        // 2·1 + 4·1 + 1 = 7 blocks.
        let (a, b) = sample(96, 3);
        let (_, r) = multiply_25d(MachineConfig::new(32), 2, &a, &b);
        assert_eq!((r.max_words(), r.max_memory()), (4032, 1728));
    }

    #[test]
    fn threed_flops_conserved() {
        let n = 8;
        let (a, b) = sample(n, 6);
        let (_, res) = multiply_25d(MachineConfig::new(8), 2, &a, &b);
        // 2n³ multiply-add flops plus the C-reduction additions
        // (c-1 block-adds per fiber, q² fibers, bs² words each = n²(c-1))
        let mm = 2 * (n as u64).pow(3);
        let reduce_adds = (n as u64).pow(2); // c = 2 -> n²·(c-1)
        assert_eq!(res.total_flops(), mm + reduce_adds);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let mut blocks = Vec::new();
        for bi in 0..3 {
            for bj in 0..3 {
                blocks.push((bi, bj, block_of(&m, 3, bi, bj)));
            }
        }
        let back = assemble_blocks(6, 3, &blocks);
        assert_eq!(back, m);
    }

    #[test]
    fn local_matmul_matches_reference() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        let flops = local_matmul_acc(&mut c, &a, &b, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(flops, 16);
    }

    #[test]
    fn exact_roots() {
        assert_eq!(exact_sqrt(49), 7);
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn non_square_rejected() {
        exact_sqrt(50);
    }
}

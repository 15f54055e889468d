//! Communication-counted matrix multiplication on the explicit two-level
//! machine.
//!
//! Two families:
//!
//! * [`multiply_blocked_explicit`] — the classical tiled algorithm with tile
//!   side `√(M/3)`: the optimal `Θ(n³/√M)` classical algorithm
//!   (Hong–Kung / Irony–Toledo–Tiskin; the `ω₀ = 3` row of the paper's
//!   bounds).
//! * [`multiply_dfs_explicit`] — the depth-first recursive Strassen-like
//!   algorithm of Section 1.4.1 (footnote 5): recurse until three blocks fit
//!   in fast memory, do the block additions as streaming passes, realize
//!   `IO(n) ≤ r·IO(n/n₀) + O(n²)` and hence
//!   `IO(n) = O((n/√M)^{ω₀}·M)` — Equation (1).
//!
//! Both run on real data (results are verified against classical kernels in
//! tests) while a [`TwoLevelMachine`] enforces the capacity invariant and
//! counts every word moved.

use crate::machine::{IoStats, TwoLevelMachine};
use fastmm_matrix::classical::multiply_naive;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scalar::Scalar;
use fastmm_matrix::scheme::BilinearScheme;

/// Result of an explicit run: the product, the I/O statistics, and the
/// fast-memory high-water mark.
pub struct ExplicitRun<T> {
    /// The computed product.
    pub c: Matrix<T>,
    /// Words/messages moved.
    pub io: IoStats,
    /// Peak fast-memory residency (must be ≤ M; asserted during the run).
    pub high_water: usize,
}

/// Tiled classical multiplication with all three tiles resident.
///
/// Tile side defaults to `⌊√(M/3)⌋` (the largest square tiles such that one
/// tile of each of A, B, C fits in fast memory).
pub fn multiply_blocked_explicit<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    m: usize,
) -> ExplicitRun<T> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n);
    let tile = ((m / 3) as f64).sqrt().floor() as usize;
    let tile = tile.clamp(1, n);
    let mut machine = TwoLevelMachine::new(m);
    let mut c: Matrix<T> = Matrix::zeros(n, n);
    for i0 in (0..n).step_by(tile) {
        let ih = (i0 + tile).min(n) - i0;
        for j0 in (0..n).step_by(tile) {
            let jw = (j0 + tile).min(n) - j0;
            // C tile accumulates in fast memory across the k loop; it starts
            // at zero so it is allocated, not read.
            machine.alloc(ih * jw);
            let mut ctile: Matrix<T> = Matrix::zeros(ih, jw);
            for k0 in (0..n).step_by(tile) {
                let kw = (k0 + tile).min(n) - k0;
                machine.load(ih * kw);
                machine.load(kw * jw);
                let at = a.view().block(i0, k0, ih, kw).to_matrix();
                let bt = b.view().block(k0, j0, kw, jw).to_matrix();
                let prod = multiply_naive(&at, &bt);
                ctile = ctile.add(&prod);
                machine.free(ih * kw);
                machine.free(kw * jw);
            }
            c.view_mut()
                .block_mut(i0, j0, ih, jw)
                .copy_from(ctile.view());
            machine.store(ih * jw);
        }
    }
    ExplicitRun {
        c,
        io: machine.stats(),
        high_water: machine.high_water(),
    }
}

/// Depth-first recursive Strassen-like multiplication with streaming block
/// additions; the paper's upper-bound construction. Accepts any conformal
/// `M x K` by `K x N` operand pair — rectangular `⟨m,k,n;r⟩` schemes split
/// the operands into their native block grids (arXiv:1209.2184).
pub fn multiply_dfs_explicit<T: Scalar>(
    scheme: &BilinearScheme,
    a: &Matrix<T>,
    b: &Matrix<T>,
    m: usize,
) -> ExplicitRun<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut machine = TwoLevelMachine::new(m);
    let c = dfs_rec(scheme, a, b, &mut machine);
    ExplicitRun {
        c,
        io: machine.stats(),
        high_water: machine.high_water(),
    }
}

fn dfs_rec<T: Scalar>(
    scheme: &BilinearScheme,
    a: &Matrix<T>,
    b: &Matrix<T>,
    machine: &mut TwoLevelMachine,
) -> Matrix<T> {
    let (mm, kk, nn) = (a.rows(), a.cols(), b.cols());
    let (bm, bk, bn) = scheme.dims();
    let (wa, wb, wc) = (mm * kk, kk * nn, mm * nn);
    let divisible = mm.is_multiple_of(bm) && kk.is_multiple_of(bk) && nn.is_multiple_of(bn);
    // Base case: both inputs and the output fit simultaneously (or the
    // scheme cannot split further — a 1x1x1 problem always lands in
    // `!divisible` or `bm*bk*bn == 1`).
    if wa + wb + wc <= machine.capacity() || !divisible || bm * bk * bn == 1 {
        machine.load(wa); // A
        machine.load(wb); // B
        machine.alloc(wc); // C accumulator materializes in fast memory
        let c = multiply_naive(a, b);
        machine.free(wa + wb);
        machine.store(wc); // C back to slow memory
        return c;
    }
    let (sm, sk, sn) = (mm / bm, kk / bk, nn / bn);
    let a_blocks: Vec<Matrix<T>> = (0..bm * bk)
        .map(|q| a.view().block(q / bk * sm, q % bk * sk, sm, sk).to_matrix())
        .collect();
    let b_blocks: Vec<Matrix<T>> = (0..bk * bn)
        .map(|q| b.view().block(q / bn * sk, q % bn * sn, sk, sn).to_matrix())
        .collect();
    // Block additions run as the scheme's straight-line programs, each op a
    // streaming pass over slow memory (O(1) fast memory). This is where
    // Winograd's 15-addition schedule moves fewer words than Strassen's 18.
    let ta = slp_eval_streamed(&scheme.enc_a, &a_blocks, machine);
    let tb = slp_eval_streamed(&scheme.enc_b, &b_blocks, machine);
    let products: Vec<Matrix<T>> = (0..scheme.r)
        .map(|l| dfs_rec(scheme, &ta[l], &tb[l], machine))
        .collect();
    let c_blocks = slp_eval_streamed(&scheme.dec_c, &products, machine);
    let mut c: Matrix<T> = Matrix::zeros(mm, nn);
    for (q, blk) in c_blocks.iter().enumerate() {
        c.view_mut()
            .block_mut(q / bn * sm, q % bn * sn, sm, sn)
            .copy_from(blk.view());
    }
    c
}

/// Evaluate an SLP over block operands, streaming each op through fast
/// memory (read the operands, write the result).
fn slp_eval_streamed<T: Scalar>(
    slp: &fastmm_matrix::scheme::Slp,
    inputs: &[Matrix<T>],
    machine: &mut TwoLevelMachine,
) -> Vec<Matrix<T>> {
    let words = inputs[0].rows() * inputs[0].cols();
    let mut tape: Vec<Matrix<T>> = inputs.to_vec();
    for op in &slp.ops {
        let mut out: Matrix<T> = Matrix::zeros(inputs[0].rows(), inputs[0].cols());
        let mut reads = 0usize;
        if op.ca != 0 {
            let src = tape[op.a].clone();
            out.view_mut().accumulate_scaled(src.view(), op.ca);
            reads += words;
        }
        if op.cb != 0 {
            let src = tape[op.b].clone();
            out.view_mut().accumulate_scaled(src.view(), op.cb);
            reads += words;
        }
        machine.stream(reads, words);
        tape.push(out);
    }
    slp.outputs.iter().map(|&i| tape[i].clone()).collect()
}

/// Closed-form upper-bound recurrence (Equation 1): the word count of the
/// DFS algorithm satisfies `IO(n) = r·IO(n/n₀) + 3·adds·(n/n₀)²` with base
/// `IO(√(M/3)) = 3n² = Θ(M)`. Square wrapper over
/// [`dfs_io_recurrence_mkn`]; returns the analytically unrolled count for
/// exact comparison against measured runs.
pub fn dfs_io_recurrence(scheme: &BilinearScheme, n: usize, m: usize) -> f64 {
    dfs_io_recurrence_mkn(scheme, n, n, n, m)
}

/// Rectangular form of the Equation (1) recurrence:
/// `IO(M,K,N) = r·IO(M/m, K/k, N/n) + Σ_slp op_words·block`, base
/// `IO = MK + KN + MN` once all three operands fit in fast memory. Each SLP
/// op streams up to two operand reads plus one write of the respective
/// block (A-blocks `(M/m)(K/k)`, B-blocks `(K/k)(N/n)`, C-blocks
/// `(M/m)(N/n)` words). Mirrors [`multiply_dfs_explicit`] exactly — the
/// property suite asserts measured == predicted.
pub fn dfs_io_recurrence_mkn(
    scheme: &BilinearScheme,
    mm: usize,
    kk: usize,
    nn: usize,
    m: usize,
) -> f64 {
    let (bm, bk, bn) = scheme.dims();
    let (wa, wb, wc) = (mm * kk, kk * nn, mm * nn);
    let divisible = mm.is_multiple_of(bm) && kk.is_multiple_of(bk) && nn.is_multiple_of(bn);
    if wa + wb + wc <= m || !divisible || bm * bk * bn == 1 {
        return (wa + wb + wc) as f64; // read A, B; write C
    }
    let blk_a = ((mm / bm) * (kk / bk)) as f64;
    let blk_b = ((kk / bk) * (nn / bn)) as f64;
    let blk_c = ((mm / bm) * (nn / bn)) as f64;
    let op_words = |slp: &fastmm_matrix::scheme::Slp| {
        slp.ops
            .iter()
            .map(|op| {
                let reads = (op.ca != 0) as usize + (op.cb != 0) as usize;
                (reads + 1) as f64
            })
            .sum::<f64>()
    };
    let level = op_words(&scheme.enc_a) * blk_a
        + op_words(&scheme.enc_b) * blk_b
        + op_words(&scheme.dec_c) * blk_c;
    level + scheme.r as f64 * dfs_io_recurrence_mkn(scheme, mm / bm, kk / bk, nn / bn, m)
}

/// Word traffic of the **arena-based** DFS engine — since the engine
/// unification this models the *default* sequential engine
/// (`fastmm_matrix::recursive::multiply_scheme`), the parallel engine's
/// `t = 1` fast path, and every DFS leaf of the BFS task tree
/// (`fastmm_matrix::arena::multiply_into`): it encodes and decodes in
/// place instead of staging block copies and chained SLP temporaries:
///
/// * encoding `T_l` reads the `nnz(U_l)` source blocks directly from `A`
///   and writes one block (`Σ_q [U[l][q] ≠ 0] + 1` block-transfers), and
///   likewise `S_l` from `V`;
/// * decoding product `l` performs, per nonzero of `W`'s column `l`, a
///   read of `M_l` plus a read-modify-write of the `C` block (3 block
///   transfers);
/// * a **non-divisible level that still makes progress** is charged as the
///   padded recursion (blocks of the shape zero-extended to the next grid
///   multiple) and nothing more: the engine zero-extends virtually, with
///   no pad copy and no crop. The padded blocks over-count the words the
///   engine moves (it skips the zeros and the cropped part of `C`), so the
///   model stays an upper bound;
/// * the base case moves `MK + KN + MN` words, as in
///   [`dfs_io_recurrence_mkn`].
///
/// Compared with the SLP-streamed recurrence this charges per *coefficient
/// application* rather than per straight-line op, which is exactly what
/// the zero-allocation engine executes; experiments e10 (`repro_parallel`)
/// and e11 (`repro_perf`) print it as the predicted words-moved column
/// next to the `(n/√M)^{ω₀}·M` lower bound.
pub fn dfs_arena_io_recurrence_mkn(
    scheme: &BilinearScheme,
    mm: usize,
    kk: usize,
    nn: usize,
    m: usize,
) -> f64 {
    let (bm, bk, bn) = scheme.dims();
    let (wa, wb, wc) = (mm * kk, kk * nn, mm * nn);
    if wa + wb + wc <= m || bm * bk * bn == 1 {
        return (wa + wb + wc) as f64;
    }
    // Child (block) shape of the shape zero-extended to the grid.
    let (sm, sk, sn) = (mm.div_ceil(bm), kk.div_ceil(bk), nn.div_ceil(bn));
    // The engine's progress guard: one level must shrink the element count.
    if sm * sk * sn >= mm * kk * nn {
        return (wa + wb + wc) as f64;
    }
    let blk_a = (sm * sk) as f64;
    let blk_b = (sk * sn) as f64;
    let blk_c = (sm * sn) as f64;
    let mut level = 0.0;
    for l in 0..scheme.r {
        level += (scheme.u.row_nnz(l) + 1) as f64 * blk_a;
        level += (scheme.v.row_nnz(l) + 1) as f64 * blk_b;
        let w_nnz = (0..bm * bn).filter(|&q| scheme.w.get(q, l) != 0).count();
        level += 3.0 * w_nnz as f64 * blk_c;
    }
    level + scheme.r as f64 * dfs_arena_io_recurrence_mkn(scheme, sm, sk, sn, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmm_matrix::scheme::{strassen, winograd};
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
    fn blocked_explicit_is_correct() {
        let (a, b) = sample(24, 1);
        let run = multiply_blocked_explicit(&a, &b, 3 * 8 * 8);
        assert_eq!(run.c, multiply_naive(&a, &b));
        assert!(run.high_water <= 3 * 8 * 8);
    }

    #[test]
    fn dfs_explicit_is_correct() {
        for (n, m) in [(16usize, 3 * 16), (32, 3 * 64), (64, 3 * 256)] {
            let (a, b) = sample(n, n as u64);
            let run = multiply_dfs_explicit(&strassen(), &a, &b, m);
            assert_eq!(run.c, multiply_naive(&a, &b), "n={n} m={m}");
            assert!(run.high_water <= m, "n={n} m={m}: {}", run.high_water);
        }
    }

    #[test]
    fn dfs_winograd_moves_fewer_words_than_strassen() {
        let (a, b) = sample(32, 7);
        let m = 3 * 16;
        let s = multiply_dfs_explicit(&strassen(), &a, &b, m);
        let w = multiply_dfs_explicit(&winograd(), &a, &b, m);
        assert_eq!(s.c, w.c);
        assert!(
            w.io.total_words() < s.io.total_words(),
            "winograd {} !< strassen {}",
            w.io.total_words(),
            s.io.total_words()
        );
    }

    #[test]
    fn blocked_io_scales_like_n3_over_sqrt_m() {
        // doubling n with fixed M multiplies the words moved by ~8
        let m = 3 * 8 * 8;
        let (a1, b1) = sample(32, 2);
        let (a2, b2) = sample(64, 3);
        let io1 = multiply_blocked_explicit(&a1, &b1, m).io.total_words() as f64;
        let io2 = multiply_blocked_explicit(&a2, &b2, m).io.total_words() as f64;
        let ratio = io2 / io1;
        assert!((ratio - 8.0).abs() < 1.5, "ratio {ratio}");
    }

    #[test]
    fn dfs_io_scales_like_7x_per_doubling() {
        // (2n/√M)^{lg 7}·M / (n/√M)^{lg 7}·M = 7
        let m = 3 * 8 * 8;
        let (a1, b1) = sample(64, 4);
        let (a2, b2) = sample(128, 5);
        let io1 = multiply_dfs_explicit(&strassen(), &a1, &b1, m)
            .io
            .total_words() as f64;
        let io2 = multiply_dfs_explicit(&strassen(), &a2, &b2, m)
            .io
            .total_words() as f64;
        let ratio = io2 / io1;
        assert!((ratio - 7.0).abs() < 0.7, "ratio {ratio}");
    }

    #[test]
    fn measured_matches_recurrence_exactly() {
        let (a, b) = sample(32, 6);
        for m in [3 * 16usize, 3 * 64] {
            let run = multiply_dfs_explicit(&strassen(), &a, &b, m);
            let predicted = dfs_io_recurrence(&strassen(), 32, m);
            assert_eq!(run.io.total_words() as f64, predicted, "m={m}");
        }
    }

    #[test]
    fn rectangular_dfs_is_correct_and_matches_recurrence() {
        use fastmm_matrix::scheme::{strassen_2x2x4, winograd_2x4x2};
        let mut rng = StdRng::seed_from_u64(17);
        for (scheme, mm, kk, nn) in [
            (strassen_2x2x4(), 8usize, 8usize, 64usize),
            (winograd_2x4x2(), 8, 64, 8),
            (strassen_2x2x4(), 4, 4, 16),
        ] {
            let a = Matrix::random_int(mm, kk, 20, &mut rng);
            let b = Matrix::random_int(kk, nn, 20, &mut rng);
            for m in [24usize, 96, 384] {
                let run = multiply_dfs_explicit(&scheme, &a, &b, m);
                assert_eq!(
                    run.c,
                    multiply_naive(&a, &b),
                    "{} {mm}x{kk}x{nn} M={m}",
                    scheme.name
                );
                assert!(run.high_water <= m.max(mm * kk + kk * nn + mm * nn));
                let predicted = dfs_io_recurrence_mkn(&scheme, mm, kk, nn, m);
                assert_eq!(
                    run.io.total_words() as f64,
                    predicted,
                    "{} {mm}x{kk}x{nn} M={m}",
                    scheme.name
                );
            }
        }
    }

    #[test]
    fn rectangular_dfs_io_scales_by_r_per_level() {
        use fastmm_matrix::scheme::strassen_2x2x4;
        // Once every level recurses (M below the smallest block triple),
        // IO(level ℓ+1) / IO(level ℓ) -> r = 14 from above (the additive
        // O(blocks) level term fades geometrically).
        let s = strassen_2x2x4();
        let m = 24;
        let io: Vec<f64> = (2..=5u32)
            .map(|l| dfs_io_recurrence_mkn(&s, 2usize.pow(l), 2usize.pow(l), 4usize.pow(l), m))
            .collect();
        let ratios: Vec<f64> = io.windows(2).map(|w| w[1] / w[0]).collect();
        for pair in ratios.windows(2) {
            assert!(pair[0] > 14.0 && pair[1] > 14.0, "ratios {ratios:?}");
            assert!(
                pair[1] - 14.0 < pair[0] - 14.0,
                "must converge to r: {ratios:?}"
            );
        }
        assert!(ratios.last().unwrap() - 14.0 < 2.0, "ratios {ratios:?}");
    }

    #[test]
    fn arena_recurrence_scales_by_r_and_pays_for_zero_staging() {
        // Same Θ((n/√M)^{ω₀}·M) shape as the SLP recurrence: the per-level
        // ratio converges to r once every level recurses.
        let s = strassen();
        let m = 3 * 8;
        let io: Vec<f64> = (4..=7u32)
            .map(|l| dfs_arena_io_recurrence_mkn(&s, 1 << l, 1 << l, 1 << l, m))
            .collect();
        let ratios: Vec<f64> = io.windows(2).map(|w| w[1] / w[0]).collect();
        assert!(
            (ratios.last().unwrap() - 7.0).abs() < 1.0,
            "ratios {ratios:?} must converge to 7"
        );
        // In-place encoding re-reads source blocks that the SLP's chained
        // temporaries would share, so it moves strictly *more* words —
        // that extra traffic is the price of zero staging memory. Within
        // a constant factor, though: same exponent.
        for n in [32usize, 64] {
            let arena = dfs_arena_io_recurrence_mkn(&s, n, n, n, m);
            let slp = dfs_io_recurrence_mkn(&s, n, n, n, m);
            assert!(arena > slp, "n={n}: arena {arena} !> slp {slp}");
            assert!(arena < 3.0 * slp, "n={n}: arena {arena} not O(slp {slp})");
        }
    }

    #[test]
    fn arena_recurrence_one_level_hand_count() {
        // One Strassen level on 2x2x2 with M below 12 (so the level splits)
        // and 1x1 base blocks: per product l, (nnz(U_l)+1) + (nnz(V_l)+1)
        // + 3*nnz(W^l), then 7 base cases of 3 words each.
        let s = strassen();
        let mut level = 0.0;
        for l in 0..7 {
            level += (s.u.row_nnz(l) + 1) as f64 + (s.v.row_nnz(l) + 1) as f64;
            level += 3.0 * (0..4).filter(|&q| s.w.get(q, l) != 0).count() as f64;
        }
        let expect = level + 7.0 * 3.0;
        assert_eq!(dfs_arena_io_recurrence_mkn(&s, 2, 2, 2, 4), expect);
    }

    #[test]
    fn arena_recurrence_base_case_is_footprint() {
        let s = strassen();
        // fits in fast memory entirely
        assert_eq!(dfs_arena_io_recurrence_mkn(&s, 8, 8, 8, 3 * 64), 192.0);
        // no split can make progress: charged as one streamed classical pass
        assert_eq!(dfs_arena_io_recurrence_mkn(&s, 1, 1, 1, 1), 3.0);
    }

    #[test]
    fn arena_recurrence_pads_per_level_without_doubling_level0_traffic() {
        // The model of the default engine's virtual zero-extension: a 65³
        // Strassen multiply splits as the 66³ one does, with no pad copy
        // and no crop, so a padded level costs exactly the padded
        // recursion — at level 0 (65 → 66) and again below it (33 → 34,
        // 17 → 18), and for a rectangular scheme padding two levels.
        let s = strassen();
        let m = 3 * 16;
        assert_eq!(
            dfs_arena_io_recurrence_mkn(&s, 65, 65, 65, m),
            dfs_arena_io_recurrence_mkn(&s, 66, 66, 66, m)
        );
        assert_eq!(
            dfs_arena_io_recurrence_mkn(&s, 33, 33, 33, m),
            dfs_arena_io_recurrence_mkn(&s, 34, 34, 34, m)
        );
        let wide = fastmm_matrix::scheme::strassen_2x2x4();
        assert_eq!(
            dfs_arena_io_recurrence_mkn(&wide, 13, 13, 61, 3 * 16),
            dfs_arena_io_recurrence_mkn(&wide, 14, 14, 64, 3 * 16)
        );
    }

    #[test]
    fn whole_problem_in_cache_costs_3n2() {
        let (a, b) = sample(16, 8);
        let run = multiply_dfs_explicit(&strassen(), &a, &b, 3 * 256);
        assert_eq!(run.io.total_words(), 3 * 256);
        let runb = multiply_blocked_explicit(&a, &b, 3 * 256);
        assert_eq!(runb.io.total_words(), 3 * 256);
    }

    #[test]
    fn larger_m_reduces_dfs_io() {
        let (a, b) = sample(64, 9);
        let mut prev = u64::MAX;
        for m in [48usize, 192, 768, 3072] {
            let io = multiply_dfs_explicit(&strassen(), &a, &b, m)
                .io
                .total_words();
            assert!(io <= prev, "m={m}: {io} > {prev}");
            prev = io;
        }
    }
}

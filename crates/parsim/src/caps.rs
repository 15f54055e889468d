//! CAPS — Communication-Avoiding Parallel Strassen (Ballard, Demmel, Holtz,
//! Rom, Schwartz, arXiv:1202.3173; the "attained by" column of the
//! Strassen-like side of Table I), generalized to any square `⟨2; r⟩`
//! scheme (Strassen and Winograd at `r = 7`, classical at `r = 8`).
//!
//! `p = r^L` ranks execute the recursion over distributed matrices. Two
//! step types:
//!
//! * **BFS step**: all `r` subproblems are solved *simultaneously* by `r`
//!   disjoint subgroups of `g/r` ranks each. The encoded operands
//!   `T_l, S_l` are computed locally (the data layout keeps quadrant
//!   addition communication-free) and then *shuffled*: each rank sends its
//!   entire share of `(T_l, S_l)` to one rank of subgroup `l`. Memory grows
//!   by `r/4` per BFS level — the communication-for-memory trade.
//! * **DFS step**: the whole group solves the `r` subproblems
//!   *sequentially*. No communication at all, shares shrink by 4 — used
//!   when memory is scarce.
//!
//! ## Bit-determinism
//!
//! The execution preserves the sequential engine's scalar arithmetic
//! exactly. Encodes and decodes run the arena's own kernels
//! ([`encode_a_into`], [`encode_b_into`], [`decode_product_into`]) over
//! each share viewed as a `2 × 2·qlen` matrix whose grid block `q` is
//! quarter `q` (see *Data layout*), so terms combine in ascending `q` and
//! products decode in ascending `l`. The rank-local leaves run the arena
//! engine ([`multiply_flat`]) at [`CapsPlan::local_cutoff`], the
//! sequential default capped at `m_r`: a leaf recurses only where
//! [`multiply_scheme`](fastmm_matrix::recursive::multiply_scheme) at that
//! cutoff would, and the distributed recursion composed with the local
//! one *is* its recursion tree. The gathered product is therefore
//! **bitwise identical** to the sequential `multiply_scheme` output
//! (enforced by tests here and by `tests/dist_exact.rs`).
//!
//! ## Data layout
//!
//! With `S` total recursion steps and base size `m_r = n/2^S`, element
//! `(i, j)` of a depth-`i` submatrix factors into quadtree *path digits*
//! (the high bits of `i, j`) and a *residual position*
//! `(i mod m_r, j mod m_r)`. A rank's share is all elements whose flat
//! residual is congruent to its group index modulo the group size
//! (requires `g | m_r²`, checked by [`CapsPlan::new`]). Because ownership
//! depends only on the residual, quadrant extraction and block addition
//! are local at *every* recursion level, and a BFS shuffle moves each
//! rank's share in exactly **one message per subproblem** — the minimal
//! latency schedule.
//!
//! Shares are stored path-major (`share[path · clen + u]`, residual class
//! index `u`), so quadrant `q` of a share is the contiguous quarter
//! `share[q·len/4 .. (q+1)·len/4]`.
//!
//! ## Memory
//!
//! Every rank buffer lives exactly as long as the memory model charges
//! it: each [`Rank::track_alloc`]/[`Rank::track_free`] sits where its
//! buffer is allocated or dropped. A BFS step drops its operands once
//! their encodes are sent and its sub-product once the inverse shuffle
//! has sent it; it encodes `T_l` and `S_l` straight into the halves of
//! one message and interleaves straight out of the received one. A leaf's
//! [`ScratchArena`] lives for that leaf only, and every rank borrows one
//! run-wide rank list, its sub-groups being slices of it. So a run's real
//! live heap stays within 10% of `p ·`
//! [`CapsPlan::projected_peak_words_per_rank`] words, which
//! `tests/caps_heap.rs` asserts with a counting allocator at p = 49 and
//! 343. At p = 2401, n = 784 the run peaks at 127.7 MiB of live heap
//! against the model's 131.9 MiB.
//!
//! ## Recovery
//!
//! Shuffle frames go through the crate's frame module with no control
//! tag: checksummed under [`Recovery::Detect`] and [`Recovery::Abft`],
//! a single corrupted word is corrected in place under `Abft`, and any
//! other corruption aborts the run. The BFS shuffle is a symmetric
//! all-to-all within residual classes, so a re-request would deadlock:
//! each side would block on the other's acknowledgement.

use crate::frame::{self, Recovery};
use crate::machine::{try_run_spmd, MachineConfig, Rank, RankFailed, SpmdResult};
use fastmm_matrix::arena::{
    decode_product_into, encode_a_into, encode_b_into, multiply_flat, ScratchArena,
};
use fastmm_matrix::dense::{MatMut, MatRef, Matrix};
use fastmm_matrix::recursive::scheme_op_count;
use fastmm_matrix::scheme::{strassen, BilinearScheme};
use fastmm_matrix::tune::default_cutoff;

/// One recursion step of the CAPS schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Split the group `r` ways (communication, memory ×r/4).
    Bfs,
    /// Serialize the `r` subproblems on the whole group (no communication).
    Dfs,
}

/// A validated CAPS execution plan.
#[derive(Clone, Debug)]
pub struct CapsPlan {
    /// Number of processors, `p = r^L`.
    pub p: usize,
    /// Matrix dimension.
    pub n: usize,
    /// Scheme rank `r` (subproblems per recursion step; 7 for Strassen).
    pub r: usize,
    /// The step sequence (DFS steps first, then the `L` BFS steps).
    pub steps: Vec<Step>,
    /// Base (residual) matrix size `n / 2^{|steps|}`.
    pub mr: usize,
}

impl CapsPlan {
    /// Validate and build a Strassen (`r = 7`) plan with `dfs_steps` DFS
    /// levels before the `log₇ p` BFS levels.
    ///
    /// Requirements: `p` a power of 7, `2^{D+L} | n`, and `p | (n/2^{D+L})²`.
    ///
    /// ```
    /// use fastmm_parsim::caps::{CapsPlan, Step};
    ///
    /// // 7 ranks, one DFS step before the single BFS step: n must divide
    /// // by 2^2 and 7 must divide (n/4)².
    /// let plan = CapsPlan::new(7, 56, 1).unwrap();
    /// assert_eq!(plan.steps, vec![Step::Dfs, Step::Bfs]);
    /// assert_eq!(plan.mr, 14);
    ///
    /// // Invalid processor counts are rejected, not mis-scheduled.
    /// assert!(CapsPlan::new(6, 56, 0).is_err());
    /// ```
    pub fn new(p: usize, n: usize, dfs_steps: usize) -> Result<CapsPlan, String> {
        Self::with_rank(7, p, n, dfs_steps)
    }

    /// Validate and build a plan for a square `⟨2; r⟩` scheme:
    /// [`CapsPlan::new`] generalized from Strassen's `r = 7` to any rank
    /// (`r = 8` runs the classical scheme through the same machinery).
    /// Requirements: `p` a power of `r`, `2^{D+L} | n`, and
    /// `p | (n/2^{D+L})²`.
    pub fn with_rank(r: usize, p: usize, n: usize, dfs_steps: usize) -> Result<CapsPlan, String> {
        assert!(r >= 2, "scheme rank must be at least 2");
        let mut l = 0usize;
        let mut q = p;
        while q > 1 {
            if !q.is_multiple_of(r) {
                return Err(format!("p = {p} is not a power of {r}"));
            }
            q /= r;
            l += 1;
        }
        let s = dfs_steps + l;
        if s > 0 && !n.is_multiple_of(1 << s) {
            return Err(format!("n = {n} is not divisible by 2^{s}"));
        }
        let mr = n >> s;
        if mr == 0 {
            return Err(format!("n = {n} too small for {s} recursion steps"));
        }
        if !(mr * mr).is_multiple_of(p) {
            return Err(format!("p = {p} does not divide mr² = {}", mr * mr));
        }
        let mut steps = vec![Step::Dfs; dfs_steps];
        steps.extend(vec![Step::Bfs; l]);
        Ok(CapsPlan { p, n, r, steps, mr })
    }

    /// Plan for an executable square 2x2 scheme (`⟨2; r⟩`): the rank is
    /// read off the scheme, everything else as [`CapsPlan::with_rank`].
    pub fn for_scheme(
        scheme: &BilinearScheme,
        p: usize,
        n: usize,
        dfs_steps: usize,
    ) -> Result<CapsPlan, String> {
        if scheme.dims() != (2, 2, 2) {
            return Err(format!(
                "CAPS layout needs a square 2x2 base, got {}",
                scheme.shape_string()
            ));
        }
        Self::with_rank(scheme.r, p, n, dfs_steps)
    }

    /// The rank-local base-case cutoff the execution uses: `min(mr,
    /// `[`default_cutoff`]`())` (which reads `FASTMM_CUTOFF`), so a leaf
    /// recurses only where the sequential engine would. Any value
    /// `≤ 2·mr − 1` keeps the distributed recursion aligned with
    /// [`multiply_scheme`](fastmm_matrix::recursive::multiply_scheme) at
    /// the same cutoff (the global levels all split, the local engine
    /// continues identically below `mr`), so the gathered product is
    /// bitwise identical to `multiply_scheme(scheme, a, b,
    /// plan.local_cutoff())`.
    pub fn local_cutoff(&self) -> usize {
        self.mr.min(default_cutoff())
    }

    /// Closed-form words **sent** per rank by this plan (every rank sends
    /// the same amount — the layout is perfectly balanced):
    ///
    /// `W(s, [Dfs, rest]) = r · W(s/4, rest)` (no communication, `r`
    /// children at quarter shares) and
    /// `W(s, [Bfs, rest]) = 3(r−1)·s/4 + W(r·s/4, rest)` (each rank ships
    /// `r−1` encoded operand pairs of `2·s/4` words down plus `r−1`
    /// product shares of `s/4` back up), starting from `s = n²/p`.
    ///
    /// For a BFS-only plan this telescopes to
    /// `3(r−1)/(r−4) · (n²/p^{2/ω₀} − n²/p)` — the memory-independent
    /// `n²/p^{2/ω₀}` communication form of arXiv:1202.3177 with an
    /// explicit constant (`6(n²/p^{2/ω₀} − n²/p)` for Strassen's `r = 7`).
    /// Words received equal words sent. Measured counters match this
    /// closed form *exactly* (asserted in tests).
    pub fn words_sent_per_rank(&self) -> u64 {
        fn w(r: u64, share: u64, steps: &[Step]) -> u64 {
            match steps.first() {
                None => 0,
                Some(Step::Dfs) => r * w(r, share / 4, &steps[1..]),
                Some(Step::Bfs) => 3 * (r - 1) * (share / 4) + w(r, r * (share / 4), &steps[1..]),
            }
        }
        w(
            self.r as u64,
            (self.n * self.n / self.p) as u64,
            &self.steps,
        )
    }

    /// Projected peak tracked words per rank, mirroring the execution's
    /// memory accounting *exactly* (asserted against the measured
    /// high-water mark in tests): a leaf holds `3s` (both operands plus
    /// the product at share size `s`), a DFS step holds its operands and
    /// output above the busiest child (`3s + peak(s/4)`), and a BFS step's
    /// peak is the recursion on the `r/4`-times-larger shuffled share
    /// (`max(2s, peak(rs/4))`) — the `r/4` memory blowup per BFS level
    /// that DFS interleaving exists to avoid.
    pub fn projected_peak_words_per_rank(&self) -> u64 {
        fn g(r: u64, s: u64, steps: &[Step]) -> u64 {
            match steps.first() {
                None => 3 * s,
                Some(Step::Dfs) => 3 * s + g(r, s / 4, &steps[1..]),
                Some(Step::Bfs) => (2 * s).max(g(r, r * (s / 4), &steps[1..])),
            }
        }
        g(
            self.r as u64,
            (self.n * self.n / self.p) as u64,
            &self.steps,
        )
    }
}

/// Decode a path index (base-4 digits, most significant first) into the
/// `(row, col)` offsets of its base block, in units of `mr`.
fn path_offsets(path: usize, levels: usize) -> (usize, usize) {
    let mut i_hi = 0usize;
    let mut j_hi = 0usize;
    for lev in (0..levels).rev() {
        let d = (path >> (2 * lev)) & 3;
        i_hi = (i_hi << 1) | (d >> 1);
        j_hi = (j_hi << 1) | (d & 1);
    }
    (i_hi, j_hi)
}

/// Extract rank `r`'s share of `m` under the CAPS layout (`levels` quadtree
/// levels, residual size `mr`, group size `g`).
pub fn extract_share(m: &Matrix<f64>, levels: usize, mr: usize, g: usize, r: usize) -> Vec<f64> {
    let clen = mr * mr / g;
    let n_paths = 1usize << (2 * levels);
    let mut share = Vec::with_capacity(n_paths * clen);
    for path in 0..n_paths {
        let (ih, jh) = path_offsets(path, levels);
        for u in 0..clen {
            let res = r + u * g;
            let (ri, rj) = (res / mr, res % mr);
            share.push(m[(ih * mr + ri, jh * mr + rj)]);
        }
    }
    share
}

/// Scatter a share back into a global matrix (inverse of [`extract_share`]).
pub fn scatter_share(
    m: &mut Matrix<f64>,
    share: &[f64],
    levels: usize,
    mr: usize,
    g: usize,
    r: usize,
) {
    let clen = mr * mr / g;
    let n_paths = 1usize << (2 * levels);
    assert_eq!(share.len(), n_paths * clen);
    for path in 0..n_paths {
        let (ih, jh) = path_offsets(path, levels);
        for u in 0..clen {
            let res = r + u * g;
            let (ri, rj) = (res / mr, res % mr);
            m[(ih * mr + ri, jh * mr + rj)] = share[path * clen + u];
        }
    }
}

/// `buf` as a `rows`-row matrix: a share at 2 rows is the `2 × 2·qlen`
/// matrix whose 2 × 2 grid block `q` is its quarter `q`, a quarter at 1
/// row is one such block — the operand shapes of the arena's encode and
/// decode kernels.
fn view(buf: &[f64], rows: usize) -> MatRef<'_, f64> {
    MatRef::from_slice(buf, rows, buf.len() / rows)
}

/// [`view`], mutably.
fn view_mut(buf: &mut [f64], rows: usize) -> MatMut<'_, f64> {
    let cols = buf.len() / rows;
    MatMut::from_slice(buf, rows, cols)
}

/// Encode product `l`'s operands `T_l = Σ_q U[l][q]·A_q` into `ta` and
/// `S_l = Σ_q V[l][q]·B_q` into `tb` from the shares `a` and `b`, charging
/// one flop per word per term of each.
fn encode_pair(
    ctx: &CapsCtx<'_>,
    rank: &mut Rank,
    l: usize,
    a: &[f64],
    b: &[f64],
    ta: &mut [f64],
    tb: &mut [f64],
) {
    encode_a_into(ctx.scheme, view(a, 2), l, &mut view_mut(ta, 1));
    rank.compute((ctx.scheme.u.row_nnz(l) * ta.len()) as u64);
    encode_b_into(ctx.scheme, view(b, 2), l, &mut view_mut(tb, 1));
    rank.compute((ctx.scheme.v.row_nnz(l) * tb.len()) as u64);
}

/// Decode product `l`'s share `ml` into the quarters of `c`
/// (`C_q ⊕= W[q][l]·M_l`); returns its flops. Decoding every `l` in
/// ascending order writes all of `c`.
fn decode(ctx: &CapsCtx<'_>, ml: &[f64], l: usize, c: &mut [f64]) -> u64 {
    decode_product_into(ctx.scheme, view(ml, 1), l, &mut view_mut(c, 2));
    (ctx.scheme.w.col_entries(l).count() * ml.len()) as u64
}

struct CapsCtx<'a> {
    scheme: &'a BilinearScheme,
    steps: &'a [Step],
    mr: usize,
    local_cutoff: usize,
    recovery: Recovery,
}

fn caps_node(
    ctx: &CapsCtx<'_>,
    rank: &mut Rank,
    group: &[usize],
    me: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    depth: usize,
) -> Vec<f64> {
    let r = ctx.scheme.r;
    let len = a.len();
    if depth == ctx.steps.len() {
        assert_eq!(group.len(), 1, "plan must end with singleton groups");
        let m = ctx.mr;
        // full local matrix, row-major (single path, residual = identity):
        // the rank-local leaf runs the arena engine, so the leaf bits are
        // exactly the sequential engine's. Its arena lives for this leaf
        // only: it is dropped before the rank can next block.
        rank.track_alloc(len); // the local product C
        let mut arena = ScratchArena::new();
        let c = multiply_flat(ctx.scheme, &a, &b, (m, m, m), ctx.local_cutoff, &mut arena);
        drop(arena);
        let ops = scheme_op_count(ctx.scheme, m, ctx.local_cutoff);
        rank.compute(ops.total() as u64);
        rank.track_free(2 * len); // operands consumed
        return c;
    }
    let qlen = len / 4;
    match ctx.steps[depth] {
        Step::Dfs => {
            let mut c = vec![0.0f64; len];
            rank.track_alloc(len);
            for l in 0..r {
                // operands of the child (the child frees them)
                let mut ta = vec![0.0f64; qlen];
                let mut tb = vec![0.0f64; qlen];
                encode_pair(ctx, rank, l, &a, &b, &mut ta, &mut tb);
                rank.track_alloc(2 * qlen);
                let ml = caps_node(ctx, rank, group, me, ta, tb, depth + 1);
                rank.compute(decode(ctx, &ml, l, &mut c));
                rank.track_free(qlen); // the child's product, consumed
            }
            rank.track_free(2 * len); // a, b consumed
            c
        }
        Step::Bfs => {
            let g = group.len();
            let gp = g / r;
            let myclass = me % gp;
            let my_l = me / gp;
            let tag_down = 10_000 + depth as u64 * 16;
            let tag_up = 10_000 + depth as u64 * 16 + 1;
            // encode + scatter: one message per subproblem, T_l and S_l
            // encoded straight into its two halves
            let mut self_piece: Option<Vec<f64>> = None;
            for l in 0..r {
                let mut piece = vec![0.0f64; 2 * qlen];
                let (ta, tb) = piece.split_at_mut(qlen);
                encode_pair(ctx, rank, l, &a, &b, ta, tb);
                let tgt = l * gp + myclass;
                if tgt == me {
                    self_piece = Some(piece);
                } else {
                    frame::send(rank, ctx.recovery, group[tgt], tag_down, piece);
                }
            }
            rank.track_free(2 * len); // a, b fully encoded and sent
            drop((a, b));

            // gather the r pieces of my subproblem
            let clen = ctx.mr * ctx.mr / g;
            let n_paths = qlen / clen;
            let mut new_a = vec![0.0f64; r * qlen];
            let mut new_b = vec![0.0f64; r * qlen];
            rank.track_alloc(2 * r * qlen);
            for s in 0..r {
                let src = s * gp + myclass;
                let piece = if src == me {
                    self_piece.take().expect("self piece present")
                } else {
                    frame::recv(rank, ctx.recovery, group[src], tag_down, None, 2 * qlen)
                };
                let (pa, pb) = piece.split_at(qlen);
                for path in 0..n_paths {
                    for v in 0..clen {
                        new_a[path * r * clen + s + r * v] = pa[path * clen + v];
                        new_b[path * r * clen + s + r * v] = pb[path * clen + v];
                    }
                }
            }
            // recurse on my subgroup
            let sub = &group[my_l * gp..(my_l + 1) * gp];
            let c_sub = caps_node(ctx, rank, sub, myclass, new_a, new_b, depth + 1);
            // inverse shuffle: return M_{my_l} pieces to the depth-i ranks
            let mut self_return: Option<Vec<f64>> = None;
            for s in 0..r {
                let mut piece = vec![0.0f64; qlen];
                for path in 0..n_paths {
                    for v in 0..clen {
                        piece[path * clen + v] = c_sub[path * r * clen + s + r * v];
                    }
                }
                let tgt = s * gp + myclass;
                if tgt == me {
                    self_return = Some(piece);
                } else {
                    frame::send(rank, ctx.recovery, group[tgt], tag_up, piece);
                }
            }
            rank.track_free(r * qlen); // c_sub scattered back
            drop(c_sub);

            // receive all r product shares and decode in ascending l — the
            // sequential engine's decode order, so bit-determinism holds.
            let mut c = vec![0.0f64; qlen * 4];
            rank.track_alloc(qlen * 4);
            let mut flops = 0u64;
            for l in 0..r {
                let src = l * gp + myclass;
                let ml: Vec<f64> = if src == me {
                    self_return.take().expect("self return present")
                } else {
                    frame::recv(rank, ctx.recovery, group[src], tag_up, None, qlen)
                };
                flops += decode(ctx, &ml, l, &mut c);
            }
            rank.compute(flops);
            c
        }
    }
}

/// Run CAPS with Strassen per `plan` and assemble the product.
pub fn caps(
    cfg: MachineConfig,
    plan: &CapsPlan,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> (Matrix<f64>, SpmdResult<Vec<f64>>) {
    caps_scheme(cfg, &strassen(), plan, a, b)
}

/// Run CAPS with any square `⟨2; r⟩` scheme per `plan` (built by
/// [`CapsPlan::for_scheme`]) and assemble the product. The gathered
/// product is bitwise identical to `multiply_scheme(scheme, a, b,
/// plan.local_cutoff())` — see the module docs.
pub fn caps_scheme(
    cfg: MachineConfig,
    scheme: &BilinearScheme,
    plan: &CapsPlan,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> (Matrix<f64>, SpmdResult<Vec<f64>>) {
    try_caps_scheme(cfg, scheme, plan, Recovery::None, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// [`caps_scheme`] with a [`Recovery`] mode and rank failure as a value:
/// exchange frames carry XOR-parity checksums when `recovery` is not
/// [`Recovery::None`] (see the module docs' *Recovery*), and a dead rank
/// returns [`RankFailed`] — with any injected-fault provenance — instead
/// of panicking. Panics unless `a` and `b` are both `plan.n × plan.n`.
pub fn try_caps_scheme(
    cfg: MachineConfig,
    scheme: &BilinearScheme,
    plan: &CapsPlan,
    recovery: Recovery,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Result<(Matrix<f64>, SpmdResult<Vec<f64>>), RankFailed> {
    assert_eq!(cfg.p, plan.p);
    assert_eq!(scheme.dims(), (2, 2, 2), "CAPS layout needs a 2x2 base");
    assert_eq!(scheme.r, plan.r, "plan was built for a different rank");
    let n = plan.n;
    assert_eq!(a.rows(), n);
    assert_eq!(a.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(b.cols(), n);
    let levels = plan.steps.len();
    // One run-wide rank list: every (sub)group is a slice of it.
    let group: Vec<usize> = (0..plan.p).collect();
    let ctx = CapsCtx {
        scheme,
        steps: &plan.steps,
        mr: plan.mr,
        local_cutoff: plan.local_cutoff(),
        recovery,
    };
    let res = try_run_spmd(cfg, |rank| {
        let a_share = extract_share(a, levels, plan.mr, plan.p, rank.id);
        let b_share = extract_share(b, levels, plan.mr, plan.p, rank.id);
        rank.track_alloc(2 * a_share.len());
        caps_node(&ctx, rank, &group, rank.id, a_share, b_share, 0)
    })?;
    let mut c = Matrix::zeros(n, n);
    for (r, share) in res.outputs.iter().enumerate() {
        scatter_share(&mut c, share, levels, plan.mr, plan.p, r);
    }
    Ok((c, res))
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
    fn plan_validation() {
        assert!(CapsPlan::new(7, 14, 0).is_ok());
        assert!(CapsPlan::new(7, 15, 0).is_err()); // odd
        assert!(CapsPlan::new(7, 16, 0).is_err()); // 7 ∤ 64
        assert!(CapsPlan::new(6, 12, 0).is_err()); // p not power of 7
        assert!(CapsPlan::new(49, 28, 0).is_ok()); // mr = 7, 49 | 49
        assert!(CapsPlan::new(49, 56, 1).is_ok()); // 1 DFS + 2 BFS, mr = 7
    }

    #[test]
    fn leaf_cutoff_is_the_sequential_default_capped_at_mr() {
        // A rank leaf recurses only where `multiply_scheme` at the default
        // cutoff (512 unless FASTMM_CUTOFF overrides it) would: the
        // 49-wide leaves of p = 2401 and p = 49 are one packed kernel
        // call each, a 700-wide leaf splits.
        let d = default_cutoff();
        for (p, n, mr) in [(2401, 784, 49), (49, 196, 49), (7, 1400, 700)] {
            let plan = CapsPlan::new(p, n, 0).unwrap();
            assert_eq!(plan.mr, mr, "p={p} n={n}");
            assert_eq!(plan.local_cutoff(), mr.min(d), "p={p} n={n}");
        }
    }

    #[test]
    fn path_offsets_are_quadtree() {
        // levels = 2: path digits (d1 d2), d = 2*di + dj
        assert_eq!(path_offsets(0b0000, 2), (0, 0));
        assert_eq!(path_offsets(0b0001, 2), (0, 1)); // d2 = 01
        assert_eq!(path_offsets(0b0010, 2), (1, 0));
        assert_eq!(path_offsets(0b1100, 2), (2, 2)); // d1 = 11 -> (1,1) high
        assert_eq!(path_offsets(0b1111, 2), (3, 3));
    }

    #[test]
    fn share_roundtrip() {
        let n = 28; // levels 1, mr 14, p 7
        let m = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
        let mut back = Matrix::zeros(n, n);
        for r in 0..7 {
            let share = extract_share(&m, 1, 14, 7, r);
            assert_eq!(share.len(), n * n / 7);
            scatter_share(&mut back, &share, 1, 14, 7, r);
        }
        assert_eq!(back, m);
    }

    #[test]
    fn caps_bfs_only_is_correct_p7() {
        for n in [14usize, 28] {
            let plan = CapsPlan::new(7, n, 0).unwrap();
            let (a, b) = sample(n, n as u64);
            let (c, _) = caps(MachineConfig::new(7), &plan, &a, &b);
            assert!(
                c.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9,
                "n={n}"
            );
        }
    }

    #[test]
    fn caps_with_dfs_is_correct() {
        let plan = CapsPlan::new(7, 28, 1).unwrap(); // 1 DFS + 1 BFS, mr = 7
        let (a, b) = sample(28, 3);
        let (c, _) = caps(MachineConfig::new(7), &plan, &a, &b);
        assert!(c.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9);
    }

    #[test]
    fn caps_p49_is_correct() {
        let plan = CapsPlan::new(49, 28, 0).unwrap(); // mr = 7
        let (a, b) = sample(28, 4);
        let (c, _) = caps(MachineConfig::new(49), &plan, &a, &b);
        assert!(c.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9);
    }

    #[test]
    fn dfs_reduces_memory_bfs_reduces_nothing() {
        // With one DFS step the peak share memory is smaller than BFS-only
        // at the same p and n.
        let n = 56;
        let (a, b) = sample(n, 5);
        let bfs_plan = CapsPlan::new(7, n, 0).unwrap();
        let dfs_plan = CapsPlan::new(7, n, 1).unwrap();
        let (_, r_bfs) = caps(MachineConfig::new(7), &bfs_plan, &a, &b);
        let (_, r_dfs) = caps(MachineConfig::new(7), &dfs_plan, &a, &b);
        assert!(
            r_dfs.max_memory() < r_bfs.max_memory(),
            "dfs {} !< bfs {}",
            r_dfs.max_memory(),
            r_bfs.max_memory()
        );
    }

    #[test]
    fn dfs_costs_no_communication_at_its_level() {
        // pure-DFS plan on p=1 moves no words at all
        let plan = CapsPlan::new(1, 16, 2).unwrap();
        let (a, b) = sample(16, 6);
        let (c, res) = caps(MachineConfig::new(1), &plan, &a, &b);
        assert!(c.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9);
        assert_eq!(res.max_words(), 0);
    }

    fn assert_bitwise(c: &Matrix<f64>, want: &Matrix<f64>, label: &str) {
        assert!(
            c.bits_eq(want),
            "{label}: gathered product not bitwise identical"
        );
    }

    #[test]
    fn caps_gather_is_bitwise_identical_to_multiply_scheme() {
        // The tentpole contract: the distributed product, gathered, is
        // bit-for-bit the sequential engine's output at the plan's local
        // cutoff — for BFS-only, DFS+BFS, and p = 49 plans.
        use fastmm_matrix::recursive::multiply_scheme;
        for (p, n, dfs) in [
            (7usize, 28usize, 0usize),
            (7, 56, 1),
            (49, 28, 0),
            (1, 16, 2),
        ] {
            let plan = CapsPlan::new(p, n, dfs).unwrap();
            let (a, b) = sample(n, (p + n + dfs) as u64);
            let (c, _) = caps(MachineConfig::new(p), &plan, &a, &b);
            let want = multiply_scheme(&strassen(), &a, &b, plan.local_cutoff());
            assert_bitwise(&c, &want, &format!("p={p} n={n} dfs={dfs}"));
        }
    }

    #[test]
    fn caps_runs_winograd_and_classical_through_the_same_layout() {
        use fastmm_matrix::recursive::multiply_scheme;
        use fastmm_matrix::scheme::{classical_scheme, winograd};
        // winograd: r = 7, same plans as strassen
        let w = winograd();
        let plan = CapsPlan::for_scheme(&w, 7, 28, 0).unwrap();
        let (a, b) = sample(28, 11);
        let (c, _) = caps_scheme(MachineConfig::new(7), &w, &plan, &a, &b);
        assert_bitwise(
            &c,
            &multiply_scheme(&w, &a, &b, plan.local_cutoff()),
            "winograd p=7",
        );
        // classical ⟨2;8⟩: r = 8, p = 8 — the generalized machinery
        let c8 = classical_scheme(2);
        let plan = CapsPlan::for_scheme(&c8, 8, 16, 0).unwrap();
        let (a, b) = sample(16, 12);
        let (c, res) = caps_scheme(MachineConfig::new(8), &c8, &plan, &a, &b);
        assert_bitwise(
            &c,
            &multiply_scheme(&c8, &a, &b, plan.local_cutoff()),
            "classical p=8",
        );
        // and its words match the closed form too
        for s in &res.stats {
            assert_eq!(s.words_sent, plan.words_sent_per_rank());
        }
        // rectangular base cases are rejected, not mis-laid-out
        assert!(CapsPlan::for_scheme(&fastmm_matrix::scheme::strassen_2x2x4(), 14, 28, 0).is_err());
    }

    #[test]
    fn measured_words_match_closed_form_exactly() {
        // Every rank's measured sent *and* received words equal
        // CapsPlan::words_sent_per_rank — including plans that interleave
        // DFS and BFS steps.
        for (p, n, dfs) in [
            (7usize, 14usize, 0usize),
            (7, 28, 1),
            (7, 56, 2),
            (49, 28, 0),
            (49, 56, 1),
        ] {
            let plan = CapsPlan::new(p, n, dfs).unwrap();
            let (a, b) = sample(n, (3 * p + n) as u64);
            let (_, res) = caps(MachineConfig::new(p), &plan, &a, &b);
            let want = plan.words_sent_per_rank();
            for (r, s) in res.stats.iter().enumerate() {
                assert_eq!(s.words_sent, want, "p={p} n={n} dfs={dfs} rank {r} sent");
                assert_eq!(
                    s.words_received, want,
                    "p={p} n={n} dfs={dfs} rank {r} received"
                );
            }
        }
    }

    #[test]
    fn bfs_only_words_match_memory_independent_form() {
        // M = ∞ regime (BFS-only): the closed form telescopes to
        // 6·(n²/p^{2/ω₀} − n²/p) sent per rank, i.e. the memory-independent
        // n²/p^{2/ω₀} communication shape of arXiv:1202.3177 — measured
        // words sit within the predicted constant [6, 12) of that bound
        // (sent+received doubles the 6).
        let omega0 = 7f64.log2();
        for (p, n) in [(7usize, 28usize), (49, 28), (49, 56)] {
            let plan = CapsPlan::new(p, n, 0).unwrap();
            let (a, b) = sample(n, (p ^ n) as u64);
            let (_, res) = caps(MachineConfig::new(p), &plan, &a, &b);
            let n2 = (n * n) as f64;
            let mem_indep = n2 / (p as f64).powf(2.0 / omega0);
            let closed = 6.0 * (mem_indep - n2 / p as f64);
            let measured = res.stats[0].words_sent as f64;
            assert!(
                (measured - closed).abs() < 1e-6,
                "p={p} n={n}: measured {measured} vs telescoped closed form {closed}"
            );
            let total = (res.stats[0].words_sent + res.stats[0].words_received) as f64;
            let ratio = total / mem_indep;
            assert!(
                (4.0..12.0).contains(&ratio),
                "p={p} n={n}: total/mem_indep = {ratio} outside the predicted constant"
            );
        }
    }

    #[test]
    fn bfs_words_match_formula() {
        // one BFS level: each rank sends 7 messages of 2·qlen words (minus
        // the self piece) and the same coming back with qlen words.
        let n = 14;
        let plan = CapsPlan::new(7, n, 0).unwrap();
        let (a, b) = sample(n, 7);
        let (_, res) = caps(MachineConfig::new(7), &plan, &a, &b);
        let share = n * n / 7; // 28
        let qlen = share / 4; // 7
        let sent_down = 6 * 2 * qlen; // 6 non-self targets, T and S halves
        let sent_up = 6 * qlen;
        for s in &res.stats {
            assert_eq!(s.words_sent as usize, sent_down + sent_up);
            assert_eq!(s.words_received as usize, sent_down + sent_up);
        }
    }
}

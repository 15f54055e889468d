//! The distributed-memory execution engine: Strassen-like recursion on
//! `P` simulated ranks by **actual block exchange**, bit-identical to the
//! sequential engine.
//!
//! Where [`caps`](mod@crate::caps) is the layout-optimal algorithm for
//! square `⟨2; r⟩` schemes at `p = r^L`, this module is the *generic*
//! engine: it runs **every** registry scheme (square or rectangular) on
//! **any** rank count — including the strong-scaling set
//! `P ∈ {1, 4, 7, 49}` — by mirroring the arena recursion of
//! [`fastmm_matrix::arena::multiply_into`] across a group tree:
//!
//! * At each splitting level the group's *leader* encodes the `r` child
//!   operand pairs with the **same fused kernels** the sequential engine
//!   uses ([`fastmm_matrix::arena::encode_a_into`] /
//!   [`fastmm_matrix::arena::encode_b_into`], ascending `q`), and ships
//!   child `l` to the leader of subgroup `l mod nsub` (`nsub = min(g, r)`
//!   balanced contiguous subgroups — subgroup 0's leader is the group
//!   leader itself). Subgroups solve their children *concurrently*;
//!   children within a subgroup run *sequentially* in ascending `l` — the
//!   BFS/DFS interleaving dictated by the group size instead of by a
//!   memory budget.
//! * Products return to the leader, which decodes them in **ascending
//!   `l`** with [`fastmm_matrix::arena::decode_product_into`] — the
//!   sequential decode order.
//! * A non-divisible level is zero-extended virtually, as in the arena
//!   engine: the leader splits its stored operands as if padded to the
//!   next block-grid multiple (the encode reads past the stored corner as
//!   zero, the decode writes only `C`'s stored corner), so no rank holds
//!   a pad buffer. Singleton groups run the rank-local arena entry point
//!   [`fastmm_matrix::arena::multiply_flat`] — which bottoms out in the
//!   same packed SIMD micro-kernel (`fastmm_matrix::pack`) as every other
//!   engine, so rank-local compute is near peak too.
//!
//! Because every scalar operation happens in the sequential engine's
//! order with the sequential engine's kernels, the gathered product is
//! **bitwise identical** to
//! [`multiply_scheme`](fastmm_matrix::recursive::multiply_scheme) at the
//! same cutoff — for every scheme, every `P`, and every shape, divisible
//! or not (enforced by `tests/dist_exact.rs`). Each *exchange* level
//! opens with a deterministic step
//! [`barrier`](crate::machine::Rank::barrier) (zero-word messages), so
//! phases are aligned steps of the simulation and per-phase counters
//! cannot bleed across levels; leaf levels do no inter-rank work and pay
//! no barrier.
//!
//! The leader-centric exchange is *not* communication-optimal — the top
//! leader moves `Θ(n²)` words regardless of `P` (it is the plain BFS
//! parallelization without the CAPS data layout). That is the point: e12
//! prints it next to CAPS and Cannon against the two lower bounds of
//! Corollary 1.2 and arXiv:1202.3177, and the gap *is* the paper's story.
//!
//! Every operand (`TAG_DOWN`) and product (`TAG_UP`) frame goes through
//! the crate's frame module under [`DistConfig::recovery`], with a
//! `TAG_CTL` control tag, so under [`Recovery::Abft`] an uncorrectable
//! frame is re-requested. An operand's sender awaits its ACK at once; a
//! product's sender only after its last child, in ascending `l` (the
//! comments in the exchange say why neither order can deadlock).

use crate::caps::{try_caps_scheme, CapsPlan};
use crate::fault::FaultPlan;
use crate::frame::{self, Recovery};
use crate::machine::{try_run_spmd, MachineConfig, Rank, RankFailed, SpmdResult};
use fastmm_matrix::arena::{
    child_shape, decode_product_into, encode_a_into, encode_b_into, multiply_flat, splits,
    ScratchArena,
};
use fastmm_matrix::dense::{MatMut, MatRef, Matrix};
use fastmm_matrix::recursive::scheme_op_count_mkn;
use fastmm_matrix::scheme::BilinearScheme;
use std::collections::VecDeque;

/// A distributed run failed: either no valid plan existed, or a rank died
/// (organically or by an injected fault).
#[derive(Debug, Clone)]
pub enum DistError {
    /// No valid execution plan (e.g. no CAPS interleaving fits the
    /// budget).
    Plan(String),
    /// A rank failed during execution; see [`RankFailed`].
    Rank(RankFailed),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Plan(e) => write!(f, "planning failed: {e}"),
            DistError::Rank(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// Configuration of a distributed-memory run.
#[derive(Clone, Debug, PartialEq)]
pub struct DistConfig {
    /// Number of simulated ranks.
    pub p: usize,
    /// The generic engine's rank-local base-case cutoff (`0` = auto via
    /// `fastmm_matrix::tune::resolve_cutoff`, so `FASTMM_CUTOFF` applies).
    /// CAPS leaves follow their plan ([`CapsPlan::local_cutoff`]) instead.
    pub cutoff: usize,
    /// Per-rank memory budget in words (`0` = unlimited). Used by
    /// [`caps_plan_for_budget`] to pick the cheapest DFS/BFS interleaving
    /// whose projected peak fits — the memory-for-communication trade of
    /// arXiv:1202.3173/3177.
    pub memory_budget: usize,
    /// Payload-corruption defense mode (default [`Recovery::None`]).
    pub recovery: Recovery,
    /// Deterministic fault schedule injected into the simulated machine
    /// (`None` injects nothing).
    pub fault_plan: Option<FaultPlan>,
}

impl DistConfig {
    /// A `p`-rank config with the auto cutoff and unlimited memory.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "at least one rank");
        DistConfig {
            p,
            cutoff: 0,
            memory_budget: 0,
            recovery: Recovery::None,
            fault_plan: None,
        }
    }

    /// Replace the rank-local cutoff.
    pub fn with_cutoff(mut self, cutoff: usize) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Replace the per-rank memory budget (words).
    pub fn with_memory_budget(mut self, words: usize) -> Self {
        self.memory_budget = words;
        self
    }

    /// Select the payload-corruption defense mode.
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attach a deterministic [`FaultPlan`] to inject during the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// The α-β machine this config runs on (with any fault plan attached).
    pub fn machine(&self) -> MachineConfig {
        let mut m = MachineConfig::new(self.p);
        if let Some(plan) = &self.fault_plan {
            m = m.with_fault_plan(plan.clone());
        }
        m
    }

    /// The resolved rank-local cutoff.
    pub fn resolved_cutoff(&self) -> usize {
        fastmm_matrix::tune::resolve_cutoff(self.cutoff)
    }
}

/// Pick the CAPS plan for `scheme` under `cfg`'s memory budget: the
/// *fewest* DFS steps (DFS costs no words but serializes) whose projected
/// peak ([`CapsPlan::projected_peak_words_per_rank`]) fits the budget —
/// unlimited-memory CAPS (all-BFS) when the budget is 0. Errors when no
/// valid interleaving fits (problem too small to add DFS levels, or
/// budget below the `3n²/p` floor of holding the shares at all).
pub fn caps_plan_for_budget(
    cfg: &DistConfig,
    scheme: &BilinearScheme,
    n: usize,
) -> Result<CapsPlan, String> {
    let mut last_err = String::new();
    for dfs in 0..=n.checked_ilog2().unwrap_or(0) as usize {
        match CapsPlan::for_scheme(scheme, cfg.p, n, dfs) {
            Ok(plan) => {
                if cfg.memory_budget == 0
                    || plan.projected_peak_words_per_rank() <= cfg.memory_budget as u64
                {
                    return Ok(plan);
                }
                last_err = format!(
                    "dfs={dfs}: projected peak {} words exceeds budget {}",
                    plan.projected_peak_words_per_rank(),
                    cfg.memory_budget
                );
            }
            Err(e) => {
                // deeper DFS only makes divisibility harder; remember why
                last_err = e;
                break;
            }
        }
    }
    Err(format!(
        "no CAPS interleaving for p={} n={n} within budget {}: {last_err}",
        cfg.p, cfg.memory_budget
    ))
}

/// Run CAPS under `cfg` (budget-selected interleaving) and return the
/// gathered product with the run statistics. Convenience wrapper over
/// [`caps_plan_for_budget`] + [`caps_scheme`](crate::caps::caps_scheme).
pub fn dist_caps(
    cfg: &DistConfig,
    scheme: &BilinearScheme,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Result<(Matrix<f64>, SpmdResult<Vec<f64>>), String> {
    try_dist_caps(cfg, scheme, a, b).map_err(|e| match e {
        DistError::Plan(msg) => msg,
        DistError::Rank(rf) => panic!("{rf}"),
    })
}

/// [`dist_caps`] with *both* failure modes as values: a planning error or
/// a [`RankFailed`] (with injected-fault provenance) instead of a panic.
/// CAPS multiplies square operands only, so anything but two `n × n`
/// matrices is a planning error naming both shapes. CAPS recovery is
/// checksummed frames with local single-word correction only (see the
/// [`caps`](mod@crate::caps) module docs): uncorrectable corruption fails
/// loudly under both [`Recovery::Detect`] and [`Recovery::Abft`].
pub fn try_dist_caps(
    cfg: &DistConfig,
    scheme: &BilinearScheme,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> Result<(Matrix<f64>, SpmdResult<Vec<f64>>), DistError> {
    let n = a.rows();
    if (a.cols(), b.rows(), b.cols()) != (n, n, n) {
        return Err(DistError::Plan(format!(
            "CAPS needs two n x n operands; got {}x{} times {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let plan = caps_plan_for_budget(cfg, scheme, n).map_err(DistError::Plan)?;
    try_caps_scheme(cfg.machine(), scheme, &plan, cfg.recovery, a, b).map_err(DistError::Rank)
}

/// Tag base of leader → sub-leader operand frames. Public so chaos
/// harnesses can target a specific frame with
/// [`FaultPlan::with_corrupt_frame`] regardless of recovery mode (control
/// traffic uses a disjoint base, so ordinals of tagged frames are stable
/// across modes).
pub const TAG_DOWN: u64 = 1 << 32;
/// Tag base of sub-leader → leader product frames (see [`TAG_DOWN`]).
pub const TAG_UP: u64 = 2 << 32;
/// Tag base of the per-level step barriers.
pub const TAG_BAR: u64 = 3 << 32;
/// Tag base of ACK/RETRY control frames ([`Recovery::Abft`] only).
pub const TAG_CTL: u64 = 4 << 32;
/// Tag stride per exchange level; must exceed any scheme rank. A
/// non-divisible level splits virtually padded operands in place, so it
/// takes no depth index of its own: depth `d` is the `d`-th exchange.
pub const DEPTH_STRIDE: u64 = 4096;

/// Balanced contiguous partition of `g` ranks into `nsub` subgroups:
/// bounds `[start, end)` of subgroup `j`. The first `g mod nsub`
/// subgroups get one extra member; subgroup 0 always starts at the group
/// leader.
fn subgroup_bounds(g: usize, nsub: usize, j: usize) -> (usize, usize) {
    let base = g / nsub;
    let extra = g % nsub;
    let start = j * base + j.min(extra);
    (start, start + base + usize::from(j < extra))
}

struct DistCtx<'a> {
    scheme: &'a BilinearScheme,
    cutoff: usize,
    recovery: Recovery,
}

/// Leader-local leaf: the rank-local arena entry point, with flop and
/// memory accounting.
fn leaf_multiply(
    ctx: &DistCtx<'_>,
    rank: &mut Rank,
    arena: &mut ScratchArena<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    shape: (usize, usize, usize),
) -> Vec<f64> {
    let (mm, kk, nn) = shape;
    rank.track_alloc(mm * nn);
    let c = multiply_flat(ctx.scheme, &a, &b, shape, ctx.cutoff, arena);
    let ops = scheme_op_count_mkn(ctx.scheme, mm, kk, nn, ctx.cutoff);
    rank.compute(ops.total().min(u128::from(u64::MAX)) as u64);
    rank.track_free(a.len() + b.len());
    c
}

/// One node of the distributed recursion. `payload` is `Some` exactly on
/// the group leader (`group[0]`); the return value likewise. All ranks of
/// `group` call this with identical `shape`/`depth`, so the control flow
/// — and therefore the message protocol — is replicated deterministically.
#[allow(clippy::too_many_arguments)]
fn dist_node(
    ctx: &DistCtx<'_>,
    rank: &mut Rank,
    arena: &mut ScratchArena<f64>,
    group: &[usize],
    payload: Option<(Vec<f64>, Vec<f64>)>,
    shape: (usize, usize, usize),
    depth: u64,
) -> Option<Vec<f64>> {
    let dims = ctx.scheme.dims();
    let g = group.len();
    let me = rank.id;
    let leader = group[0];
    if g == 1 || !splits(dims, shape, ctx.cutoff) {
        // Singleton group (or base-size problem): the leader computes
        // locally on the arena engine; other ranks have nothing to do.
        return payload.map(|(a, b)| leaf_multiply(ctx, rank, arena, a, b, shape));
    }
    // Splitting level: encode at the leader, exchange, recurse, decode. A
    // non-divisible shape splits as if zero-extended to the next grid
    // multiple: the encodes read past the stored corner as zero and the
    // decode writes only the stored corner of C.
    // Deterministic step: no rank starts the exchange before every group
    // member reached it, and clocks align to the slowest. Leaf levels
    // perform no inter-rank work, so only exchange levels barrier.
    rank.barrier(group, TAG_BAR + depth * DEPTH_STRIDE);
    let r = ctx.scheme.r;
    let nsub = g.min(r);
    let cs = child_shape(dims, shape);
    let (sm, sk, sn) = cs;
    let (ta_len, tb_len, mc_len) = (sm * sk, sk * sn, sm * sn);
    let my_idx = group
        .iter()
        .position(|&x| x == me)
        .expect("rank not in its group");
    let my_j = (0..nsub)
        .position(|j| {
            let (s, e) = subgroup_bounds(g, nsub, j);
            (s..e).contains(&my_idx)
        })
        .expect("every rank is in a subgroup");
    let (s0, e0) = subgroup_bounds(g, nsub, my_j);
    let my_sub = &group[s0..e0];
    let sub_leader_of = |j: usize| group[subgroup_bounds(g, nsub, j).0];
    let tag = |base: u64, l: usize| base + depth * DEPTH_STRIDE + l as u64;

    // Phase 1 (leader): encode all r children in ascending l, ship each
    // to its subgroup leader (buffered sends — no deadlock), queue own.
    let mut local_children: VecDeque<(Vec<f64>, Vec<f64>)> = VecDeque::new();
    if me == leader {
        let (a, b) = payload.as_ref().expect("leader holds the operands");
        let a_ref = MatRef::from_slice(a, shape.0, shape.1);
        let b_ref = MatRef::from_slice(b, shape.1, shape.2);
        for l in 0..r {
            let mut ta = vec![0.0f64; ta_len];
            encode_a_into(
                ctx.scheme,
                a_ref,
                l,
                &mut MatMut::from_slice(&mut ta, sm, sk),
            );
            let mut tb = vec![0.0f64; tb_len];
            encode_b_into(
                ctx.scheme,
                b_ref,
                l,
                &mut MatMut::from_slice(&mut tb, sk, sn),
            );
            rank.compute(
                (ctx.scheme.u.row_nnz(l) * ta_len + ctx.scheme.v.row_nnz(l) * tb_len) as u64,
            );
            let tgt = sub_leader_of(l % nsub);
            if tgt == me {
                rank.track_alloc(ta_len + tb_len);
                local_children.push_back((ta, tb));
            } else {
                let mut msg = ta;
                msg.extend_from_slice(&tb);
                // Ack-synchronous under `Recovery::Abft`: blocking for the
                // child's ACK here is safe because the child's first
                // phase-2 action for child `l` is exactly this receive —
                // its progress never depends on the leader's later sends.
                if let Some(clean) = frame::send(rank, ctx.recovery, tgt, tag(TAG_DOWN, l), msg) {
                    frame::await_ack(rank, tgt, tag(TAG_DOWN, l), tag(TAG_CTL, l), &clean);
                }
            }
        }
    }

    // Phase 2 (all): solve the children of my subgroup sequentially in
    // ascending l; subgroups run concurrently.
    let mut own_results: VecDeque<Vec<f64>> = VecDeque::new();
    // Under `Recovery::Abft`, UP frames are sent *eagerly* (buffered) and
    // their clean payloads retained for possible resends; the ACK/RETRY
    // control frames are processed only after the whole loop. Waiting for
    // an UP-ack inline between two DOWN consumptions would deadlock
    // against the leader's phase-1 ack-wait.
    let mut pending_up: Vec<(usize, Vec<f64>)> = Vec::new();
    for l in (my_j..r).step_by(nsub) {
        let child_payload = if me == my_sub[0] {
            let (ta, tb) = if me == leader {
                local_children.pop_front().expect("queued child")
            } else {
                let data = frame::recv(
                    rank,
                    ctx.recovery,
                    leader,
                    tag(TAG_DOWN, l),
                    Some(tag(TAG_CTL, l)),
                    ta_len + tb_len,
                );
                rank.track_alloc(data.len());
                let (x, y) = data.split_at(ta_len);
                (x.to_vec(), y.to_vec())
            };
            Some((ta, tb))
        } else {
            None
        };
        let ml = dist_node(ctx, rank, arena, my_sub, child_payload, cs, depth + 1);
        if let Some(ml) = ml {
            if me == leader {
                own_results.push_back(ml);
            } else {
                match frame::send(rank, ctx.recovery, leader, tag(TAG_UP, l), ml) {
                    // Retained until the leader's ACK (freed below).
                    Some(clean) => pending_up.push((l, clean)),
                    None => rank.track_free(mc_len),
                }
            }
        }
    }

    // Deferred UP acknowledgements (`Recovery::Abft`, non-leader
    // sub-leaders only): drain control frames in ascending l — the
    // leader's phase-3 order — re-sending from the retained clean copy on
    // RETRY.
    for (l, clean) in pending_up {
        frame::await_ack(rank, leader, tag(TAG_UP, l), tag(TAG_CTL, l), &clean);
        rank.track_free(mc_len);
    }

    // Phase 3 (leader): decode in ascending l — the sequential engine's
    // decode order, hence bit-determinism.
    if me == leader {
        let (a, b) = payload.expect("leader holds the operands");
        rank.track_free(a.len() + b.len()); // fully encoded and shipped
        drop((a, b));
        let (mm, _, nn) = shape;
        let mut c = vec![0.0f64; mm * nn];
        rank.track_alloc(mm * nn);
        for l in 0..r {
            let ml = if sub_leader_of(l % nsub) == me {
                own_results.pop_front().expect("own child result")
            } else {
                let d = frame::recv(
                    rank,
                    ctx.recovery,
                    sub_leader_of(l % nsub),
                    tag(TAG_UP, l),
                    Some(tag(TAG_CTL, l)),
                    mc_len,
                );
                rank.track_alloc(d.len());
                d
            };
            decode_product_into(
                ctx.scheme,
                MatRef::from_slice(&ml, sm, sn),
                l,
                &mut MatMut::from_slice(&mut c, mm, nn),
            );
            rank.compute((ctx.scheme.w.col_entries(l).count() * mc_len) as u64);
            rank.track_free(mc_len);
        }
        Some(c)
    } else {
        None
    }
}

/// Multiply `a · b` (any conformal shapes) with `scheme` on `cfg.p`
/// simulated ranks, by actual block exchange. Rank 0 starts with the
/// operands and ends with the product; the gathered result is **bitwise
/// identical** to `multiply_scheme(scheme, a, b, cfg.resolved_cutoff())`
/// for every scheme, rank count, and shape (see module docs).
///
/// Returns the product and the per-rank statistics (words, messages,
/// peak memory, virtual clocks).
pub fn dist_multiply(
    cfg: &DistConfig,
    scheme: &BilinearScheme,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> (Matrix<f64>, SpmdResult<Option<Vec<f64>>>) {
    try_dist_multiply(cfg, scheme, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// The outcome of a fallible distributed run: the gathered product plus
/// per-rank statistics on success, [`RankFailed`] (with any
/// injected-fault provenance) when a rank dies.
pub type DistRun = Result<(Matrix<f64>, SpmdResult<Option<Vec<f64>>>), RankFailed>;

/// [`dist_multiply`] with rank failure as a value: returns [`RankFailed`]
/// (with any injected-fault provenance) instead of panicking when a rank
/// dies — the entry point `repro_*` binaries use to exit nonzero with a
/// structured report on a failed run.
pub fn try_dist_multiply(
    cfg: &DistConfig,
    scheme: &BilinearScheme,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) -> DistRun {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(cfg.p >= 1, "at least one rank");
    let shape = (a.rows(), a.cols(), b.cols());
    let cutoff = cfg.resolved_cutoff();
    // One run-wide rank list: every (sub)group is a slice of it.
    let group: Vec<usize> = (0..cfg.p).collect();
    let res = try_run_spmd(cfg.machine(), |rank| {
        let ctx = DistCtx {
            scheme,
            cutoff,
            recovery: cfg.recovery,
        };
        let mut arena = ScratchArena::new();
        let payload = (rank.id == 0).then(|| {
            rank.track_alloc(a.rows() * a.cols() + b.rows() * b.cols());
            (a.as_slice().to_vec(), b.as_slice().to_vec())
        });
        dist_node(&ctx, rank, &mut arena, &group, payload, shape, 0)
    })?;
    let c_flat = res.outputs[0].clone().expect("rank 0 holds the product");
    let c = Matrix::from_vec(a.rows(), b.cols(), c_flat);
    Ok((c, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmm_matrix::classical::multiply_naive;
    use fastmm_matrix::recursive::multiply_scheme;
    use fastmm_matrix::scheme::{strassen, winograd_2x4x2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(m: usize, k: usize, seed: u64) -> Matrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::random(m, k, &mut rng)
    }

    #[test]
    fn subgroup_bounds_partition_exactly() {
        for (g, nsub) in [(7usize, 7usize), (49, 7), (4, 4), (5, 3), (10, 7)] {
            let mut covered = 0;
            for j in 0..nsub {
                let (s, e) = subgroup_bounds(g, nsub, j);
                assert_eq!(s, covered, "g={g} nsub={nsub} j={j} contiguous");
                assert!(e > s, "non-empty");
                covered = e;
            }
            assert_eq!(covered, g, "g={g} nsub={nsub} covers the group");
        }
    }

    #[test]
    fn dist_multiply_matches_sequential_engine_bitwise() {
        let s = strassen();
        let a = sample(16, 16, 1);
        let b = sample(16, 16, 2);
        let cfg = DistConfig::new(7).with_cutoff(2);
        let (c, res) = dist_multiply(&cfg, &s, &a, &b);
        let want = multiply_scheme(&s, &a, &b, 2);
        assert!(
            c.bits_eq(&want),
            "p=7 gathered product diverged from multiply_scheme"
        );
        // only rank 0 holds a product; everyone communicated something
        assert!(res.outputs.iter().skip(1).all(|o| o.is_none()));
        assert!(res.stats.iter().all(|st| st.words_received > 0));
    }

    #[test]
    fn dist_multiply_rectangular_non_divisible_p4() {
        // ⟨2,4,2;14⟩ on a non-divisible shape across 4 ranks: ragged
        // levels and rectangular grids run through the same exchange.
        let s = winograd_2x4x2();
        let a = sample(6, 17, 3);
        let b = sample(17, 5, 4);
        let cfg = DistConfig::new(4).with_cutoff(2);
        let (c, _) = dist_multiply(&cfg, &s, &a, &b);
        let want = multiply_scheme(&s, &a, &b, 2);
        assert!(
            c.bits_eq(&want),
            "rectangular non-divisible gathered product diverged"
        );
        assert!(c.max_abs_diff(&multiply_naive(&a, &b), |x| x) < 1e-9);
    }

    #[test]
    fn a_ragged_level_takes_no_pad_buffer_at_the_leader() {
        // The leader splits a ragged shape in place instead of holding a
        // zero-extended copy, so its peak is no larger than at the next
        // grid multiple.
        let s = strassen();
        let cfg = DistConfig::new(7).with_cutoff(2);
        let leader_peak = |n| {
            let (a, b) = (sample(n, n, 9), sample(n, n, 10));
            dist_multiply(&cfg, &s, &a, &b).1.stats[0].mem_high_water
        };
        let (ragged, grid) = (leader_peak(15), leader_peak(16));
        assert!(ragged <= grid, "15³ peaks at {ragged} words, 16³ at {grid}");
    }

    #[test]
    fn dist_multiply_p1_moves_no_words() {
        let s = strassen();
        let a = sample(8, 8, 5);
        let b = sample(8, 8, 6);
        let (c, res) = dist_multiply(&DistConfig::new(1).with_cutoff(2), &s, &a, &b);
        assert_eq!(res.max_words(), 0);
        assert_eq!(res.max_msgs(), 0);
        let want = multiply_scheme(&s, &a, &b, 2);
        assert!(c.bits_eq(&want));
    }

    #[test]
    fn dist_counters_are_run_to_run_deterministic() {
        let s = strassen();
        let a = sample(16, 16, 7);
        let b = sample(16, 16, 8);
        let cfg = DistConfig::new(7).with_cutoff(4);
        let (_, r1) = dist_multiply(&cfg, &s, &a, &b);
        let (_, r2) = dist_multiply(&cfg, &s, &a, &b);
        for (s1, s2) in r1.stats.iter().zip(&r2.stats) {
            assert_eq!(s1.words_sent, s2.words_sent);
            assert_eq!(s1.words_received, s2.words_received);
            assert_eq!(s1.msgs_sent, s2.msgs_sent);
            assert_eq!(s1.mem_high_water, s2.mem_high_water);
            assert_eq!(s1.flops, s2.flops);
            assert!((s1.clock - s2.clock).abs() < 1e-12);
        }
    }

    #[test]
    fn caps_plan_for_budget_trades_dfs_for_memory() {
        let s = strassen();
        let n = 56;
        // unlimited: all-BFS
        let cfg = DistConfig::new(7);
        let plan = caps_plan_for_budget(&cfg, &s, n).unwrap();
        assert!(!plan.steps.contains(&crate::Step::Dfs));
        // a budget below the all-BFS peak forces DFS steps in
        let tight = plan.projected_peak_words_per_rank() as usize - 1;
        let cfg = DistConfig::new(7).with_memory_budget(tight);
        let plan2 = caps_plan_for_budget(&cfg, &s, n).unwrap();
        assert!(plan2.steps.contains(&crate::Step::Dfs));
        assert!(plan2.projected_peak_words_per_rank() as usize <= tight);
        // an impossible budget errors clearly instead of misbehaving
        let err =
            caps_plan_for_budget(&DistConfig::new(7).with_memory_budget(10), &s, n).unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }
}

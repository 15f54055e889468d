//! The expansion ⇒ I/O pipeline: Lemma 3.3 and Claim 3.2 evaluated
//! numerically.
//!
//! Given a lower bound on `h(Dec_k C)` (from the Lemma 4.3 machinery in
//! `fastmm-expansion`, or any measured certificate), the partition argument
//! turns it into a sequential I/O lower bound:
//!
//! 1. Small-set expansion via decomposition (Claim 2.1 / Cor. 4.4):
//!    sets of size `≤ |V(Dec_k)|/2` inside `Dec_{lg n} C` expand at least as
//!    well as `h(Dec_k)`.
//! 2. Choose the smallest `k` whose sets are big enough to overwhelm the
//!    fast memory: `h_s · s ≥ 3M` for `s = |V(Dec_k)|/2` (Eq. 7).
//! 3. Then `IO ≥ (α/2) · (|V(Dec_{lg n})| / s) · M` with `α ≥ 1/3` the
//!    fraction of `H_{lg n}` lying in the decode subgraph (Claim 3.2,
//!    Lemma 3.3).

use crate::registry::SchemeParams;
use fastmm_matrix::scheme::BilinearScheme;

/// Number of vertices of the layered `Dec_k C`:
/// `Σ_{j=0}^{k} t^{k-j} · r^j` with `t = m·n` outputs per component
/// (`n₀²` in the square case).
pub fn dec_vertices(params: SchemeParams, k: usize) -> f64 {
    let t = (params.m * params.n) as f64;
    let r = params.r as f64;
    (0..=k)
        .map(|j| t.powi((k - j) as i32) * r.powi(j as i32))
        .sum()
}

/// Result of the expansion ⇒ I/O pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ExpansionIoBound {
    /// The decomposition depth `k` used.
    pub k: usize,
    /// The small-set size `s = |V(Dec_k)|/2`.
    pub s: f64,
    /// The expansion lower bound at that scale.
    pub h_s: f64,
    /// The resulting I/O lower bound (words).
    pub io_words: f64,
}

/// Evaluate Lemma 3.3: find the smallest `k ≤ lg_n` with
/// `h_lower(k) · |V(Dec_k)|/2 ≥ 3M` and return the induced bound.
/// Returns `None` if no such `k` exists (problem fits in fast memory).
pub fn expansion_io_bound(
    params: SchemeParams,
    lg_n: usize,
    m: usize,
    h_lower: impl Fn(usize) -> f64,
) -> Option<ExpansionIoBound> {
    let alpha = 1.0 / 3.0;
    for k in 1..=lg_n {
        let s = dec_vertices(params, k) / 2.0;
        let h = h_lower(k);
        if h * s >= 3.0 * m as f64 {
            let total = dec_vertices(params, lg_n);
            let io_words = (alpha / 2.0) * (total / s) * m as f64;
            return Some(ExpansionIoBound {
                k,
                s,
                h_s: h,
                io_words,
            });
        }
    }
    None
}

/// A distributed-memory execution report: one algorithm's *measured*
/// per-rank traffic on the simulated machine against the two parallel
/// communication floors — the memory-dependent Corollary 1.2/1.4 bound
/// `(n/√M)^{ω₀}·M/p` evaluated at the run's own measured peak memory, and
/// the memory-independent `n²/p^{2/ω₀}` bound of arXiv:1202.3177. The
/// ratio columns of experiment e12 (`repro_distributed`) are exactly
/// `max_words_per_rank / *_bound_words`, printed per `P` of the
/// strong-scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct DistExecReport {
    /// Rank count of the run.
    pub p: usize,
    /// Problem dimension.
    pub n: usize,
    /// Measured max per-rank words (sent + received) —
    /// `SpmdResult::max_words`, the parallel model's bandwidth cost.
    pub max_words_per_rank: u64,
    /// Measured max per-rank memory high-water mark (words) — the `M` the
    /// memory-dependent bound is evaluated at.
    pub max_mem_per_rank: usize,
    /// Corollary 1.2/1.4 floor `(n/√M)^{ω₀}·M/p` at `M =`
    /// [`DistExecReport::max_mem_per_rank`].
    pub mem_dependent_bound_words: f64,
    /// arXiv:1202.3177 floor `n²/p^{2/ω₀}` (no memory dependence).
    pub mem_independent_bound_words: f64,
    /// Critical-path time in the α-β(-γ) model.
    pub critical_path_time: f64,
    /// `p == 1`: the run is rank-local — no communication occurs, so the
    /// parallel floors (stated for distributed executions at `p > 1`) are
    /// vacuous here. Consumers must not compare `max_words_per_rank`
    /// (identically 0) against the bounds on a local-only row.
    pub local_only: bool,
}

impl DistExecReport {
    /// `measured / max(bounds)` — how far above the *binding* floor the
    /// algorithm runs (≥ 1 for any correct load-balanced execution at
    /// `p > 1`; a flat column across a sweep means the algorithm shares
    /// the bound's shape).
    pub fn ratio_to_binding_bound(&self) -> f64 {
        let binding = self
            .mem_dependent_bound_words
            .max(self.mem_independent_bound_words);
        self.max_words_per_rank as f64 / binding
    }
}

/// Build a [`DistExecReport`] from a simulated run's statistics: evaluate
/// both parallel floors for `params` at the run's measured peak memory.
pub fn dist_exec_report<R>(
    params: SchemeParams,
    n: usize,
    res: &fastmm_parsim::SpmdResult<R>,
) -> DistExecReport {
    let p = res.stats.len();
    let max_mem = res.max_memory();
    DistExecReport {
        p,
        n,
        max_words_per_rank: res.max_words(),
        max_mem_per_rank: max_mem,
        mem_dependent_bound_words: crate::bounds::par_bandwidth_lower_bound(
            params,
            n,
            max_mem.max(1),
            p,
        ),
        mem_independent_bound_words: crate::bounds::par_bandwidth_lower_bound_mem_independent(
            params, n, p,
        ),
        critical_path_time: res.critical_path_time(),
        local_only: p == 1,
    }
}

/// A sequential execution report tying the default (arena) engine back to
/// the paper's bounds: the resolved base-case cutoff, the effective fast
/// memory where the recursion bottoms out, the engine's modeled word
/// traffic, and the Theorem 1.1/1.3 floor at that memory size.
#[derive(Clone, Copy, Debug)]
pub struct SeqExecReport {
    /// The base-case cutoff the run uses (caller value, or the
    /// `FASTMM_CUTOFF`/compiled default via `fastmm_matrix::tune`).
    pub cutoff: usize,
    /// Effective fast-memory words `3·cutoff²` — where the recursion
    /// switches to the classical kernel, hence the `M` of the model.
    pub memory_words: usize,
    /// Modeled traffic of the arena engine
    /// (`dfs_arena_io_recurrence_mkn` at `M = memory_words`).
    pub arena_words: f64,
    /// Theorem 1.1/1.3 bandwidth lower bound `(n/√M)^{ω₀}·M` at the same
    /// `M` — the floor no schedule of this CDAG can beat.
    pub seq_bound_words: f64,
}

/// Report the default sequential engine's modeled traffic for an
/// `n x n x n` multiply with `scheme` against the Section 1.1 bound.
/// `cutoff = 0` means "auto" (resolved through `fastmm_matrix::tune`, so
/// `FASTMM_CUTOFF` applies). Experiment e11 (`repro_perf`) prints this
/// next to measured GFLOP/s per engine.
pub fn seq_exec_report(scheme: &BilinearScheme, n: usize, cutoff: usize) -> SeqExecReport {
    let cutoff = fastmm_matrix::tune::resolve_cutoff(cutoff);
    let memory_words = 3 * cutoff * cutoff;
    let params = SchemeParams::of_scheme(scheme);
    let arena_words =
        fastmm_memsim::explicit::dfs_arena_io_recurrence_mkn(scheme, n, n, n, memory_words);
    let seq_bound_words = crate::bounds::seq_bandwidth_lower_bound(params, n, memory_words);
    SeqExecReport {
        cutoff,
        memory_words,
        arena_words,
        seq_bound_words,
    }
}

/// A batched-service execution report tying the `fastmm-serve` engine to
/// the paper's bounds: each job of an `n × n × n` shape class moves the
/// arena engine's modeled words against the Theorem 1.1/1.3 floor at the
/// effective fast memory `3·cutoff²` where the recursion bottoms out, and
/// a batch of `batch` jobs spread over `workers` shards moves the
/// per-worker share. In the strong-scaling reading of arXiv:1202.3177
/// this share — not single-job latency — is what bounds the service's
/// sustainable throughput; experiment e13 (`repro_serve`) prints the
/// measured multiplies/sec next to it.
#[derive(Clone, Copy, Debug)]
pub struct ServeExecReport {
    /// Worker shard count of the engine.
    pub workers: usize,
    /// The resolved base-case cutoff every shard runs.
    pub cutoff: usize,
    /// Effective fast-memory words `3·cutoff²` — the `M` of the model.
    pub memory_words: usize,
    /// Modeled engine traffic per job
    /// (`dfs_arena_io_recurrence_mkn` at `M = memory_words`).
    pub per_job_arena_words: f64,
    /// Theorem 1.1/1.3 floor `(n/√M)^{ω₀}·M` per job at the same `M`.
    pub per_job_bound_words: f64,
    /// Modeled words one whole batch moves (`batch ×` per-job traffic).
    pub batch_arena_words: f64,
    /// The per-shard share of the batch traffic — the quantity a
    /// throughput-optimal dispatch drives toward the Corollary 1.2 shape.
    /// An upper bound: a caller waiting on its ticket runs base-case jobs
    /// of its batch itself while a shard is idle, so the shards may move
    /// less.
    pub per_worker_share_words: f64,
}

/// Model one serve shape class: `batch` jobs of `n × n × n` under
/// `scheme`, spread over `workers` shards at `cutoff` (`0` = auto via
/// `fastmm_matrix::tune`, matching the engine's own resolution).
pub fn serve_exec_report(
    scheme: &BilinearScheme,
    n: usize,
    batch: usize,
    workers: usize,
    cutoff: usize,
) -> ServeExecReport {
    let seq = seq_exec_report(scheme, n, cutoff);
    let workers = workers.max(1);
    let batch_arena_words = seq.arena_words * batch as f64;
    ServeExecReport {
        workers,
        cutoff: seq.cutoff,
        memory_words: seq.memory_words,
        per_job_arena_words: seq.arena_words,
        per_job_bound_words: seq.seq_bound_words,
        batch_arena_words,
        per_worker_share_words: batch_arena_words / workers as f64,
    }
}

/// A fault-recovery execution report: what surviving injected corruption
/// *cost* in communication, measured against a clean baseline of the same
/// run and against the memory-independent parallel floor `n²/p^{2/ω₀}`
/// (arXiv:1202.3177; the Thm 1.1-derived bound the e14 ratio columns
/// use). Checksum framing inflates every frame by its parity words and
/// each re-requested frame is paid again, so the overhead is real words
/// on the critical path — this report is how experiment e14
/// (`repro_faults`) prices the recovery ladder.
#[derive(Clone, Copy, Debug)]
pub struct FaultExecReport {
    /// Rank count of the run.
    pub p: usize,
    /// Problem dimension.
    pub n: usize,
    /// Max per-rank words of the faulty (recovered) run.
    pub faulty_max_words_per_rank: u64,
    /// Max per-rank words of the clean baseline run (same config,
    /// `Recovery::None`, no fault plan).
    pub baseline_max_words_per_rank: u64,
    /// Total locally corrected frames across all ranks.
    pub frames_corrected: u64,
    /// Total re-requested frames across all ranks.
    pub frames_retried: u64,
    /// Memory-independent floor `n²/p^{2/ω₀}` for these scheme params.
    pub mem_independent_bound_words: f64,
    /// Critical-path time of the faulty run.
    pub critical_path_time: f64,
}

impl FaultExecReport {
    /// Recovery overhead in words per rank:
    /// `faulty - baseline` (0 when recovery was free or absent).
    pub fn overhead_words_per_rank(&self) -> u64 {
        self.faulty_max_words_per_rank
            .saturating_sub(self.baseline_max_words_per_rank)
    }

    /// Overhead as a ratio to the memory-independent floor — the e14
    /// headline number: how many "floors worth" of extra words the
    /// recovery machinery costs.
    pub fn overhead_ratio_to_floor(&self) -> f64 {
        self.overhead_words_per_rank() as f64 / self.mem_independent_bound_words
    }

    /// Overhead as a fraction of the baseline traffic itself.
    pub fn overhead_fraction_of_baseline(&self) -> f64 {
        if self.baseline_max_words_per_rank == 0 {
            return 0.0;
        }
        self.overhead_words_per_rank() as f64 / self.baseline_max_words_per_rank as f64
    }
}

/// Build a [`FaultExecReport`] from a faulty (recovered) run and its
/// clean baseline. The two runs must share `p`, `n`, and scheme — only
/// recovery mode and fault plan may differ.
pub fn fault_exec_report<R, S>(
    params: SchemeParams,
    n: usize,
    baseline: &fastmm_parsim::SpmdResult<R>,
    faulty: &fastmm_parsim::SpmdResult<S>,
) -> FaultExecReport {
    assert_eq!(
        baseline.stats.len(),
        faulty.stats.len(),
        "baseline and faulty runs must use the same rank count"
    );
    let p = faulty.stats.len();
    FaultExecReport {
        p,
        n,
        faulty_max_words_per_rank: faulty.max_words(),
        baseline_max_words_per_rank: baseline.max_words(),
        frames_corrected: faulty.stats.iter().map(|s| s.frames_corrected).sum(),
        frames_retried: faulty.stats.iter().map(|s| s.frames_retried).sum(),
        mem_independent_bound_words: crate::bounds::par_bandwidth_lower_bound_mem_independent(
            params, n, p,
        ),
        critical_path_time: faulty.critical_path_time(),
    }
}

/// The rank-expansion I/O lower bound (arXiv:2107.09834, via
/// [`fastmm_expansion::rank_bound`]) evaluated next to the paper's
/// Theorem 1.1 bound for the same `⟨m,k,n;r⟩^{⊗ℓ}` problem, so experiments
/// can report which bound binds at each memory size.
#[derive(Clone, Debug)]
pub struct RankBoundReport {
    /// Scheme display name.
    pub name: String,
    /// Recursion depth ℓ (problem is the ℓ-fold Kronecker power).
    pub levels: u32,
    /// Fast-memory words `M`.
    pub m: usize,
    /// The rank-expansion segment bound.
    pub rank: fastmm_expansion::RankIoBound,
    /// Theorem 1.1 evaluated at the same flop count
    /// ([`crate::bounds::rect_seq_bandwidth_lower_bound`]).
    pub thm11_words: f64,
}

impl RankBoundReport {
    /// Does the rank-expansion bound dominate Theorem 1.1 here?
    pub fn rank_dominates(&self) -> bool {
        self.rank.io_words as f64 >= self.thm11_words
    }
}

/// Evaluate both the rank-expansion and Theorem 1.1 I/O lower bounds for
/// `scheme^{⊗levels}` with fast memory `m`.
pub fn rank_bound_report(scheme: &BilinearScheme, levels: u32, m: usize) -> RankBoundReport {
    let mut sre = fastmm_expansion::scheme_rank_expansion(scheme);
    let rank = fastmm_expansion::rank_io_bound(&mut sre, levels, m);
    let params = SchemeParams::rect("rank-report", scheme.bm, scheme.bk, scheme.bn, scheme.r);
    RankBoundReport {
        name: scheme.name.clone(),
        levels,
        m,
        rank,
        thm11_words: crate::bounds::rect_seq_bandwidth_lower_bound(params, levels, m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::STRASSEN;

    /// The Main Lemma's guarantee shape with an explicit constant.
    fn h_lemma(k: usize) -> f64 {
        0.05 * (4.0f64 / 7.0).powi(k as i32)
    }

    #[test]
    fn rank_bound_dominates_thm11_at_large_memory() {
        use fastmm_matrix::scheme::strassen;
        // Thm 1.1 decays like M^{1-ω₀/2} while the rank-expansion segment
        // bound holds a near-constant 3·rank(W)^ℓ·R/k − 3M·R/k profile, so
        // for Strassen at ℓ=7 the rank bound takes over around M ≈ 2¹¹.
        let tight = rank_bound_report(&strassen(), 7, 4096);
        assert!(
            tight.rank_dominates(),
            "rank {} vs thm11 {}",
            tight.rank.io_words,
            tight.thm11_words
        );
        let loose = rank_bound_report(&strassen(), 7, 64);
        assert!(!loose.rank_dominates(), "Thm 1.1 must bind at small M");
        // And the rank bound itself decreases with memory.
        assert!(tight.rank.io_words <= loose.rank.io_words);
    }

    #[test]
    fn rank_bound_report_covers_registry_schemes() {
        for s in fastmm_matrix::scheme::all_schemes() {
            let levels = if s.r > 20 { 3 } else { 5 };
            let rep = rank_bound_report(&s, levels, 256);
            assert!(rep.thm11_words > 0.0, "{}", s.name);
            assert!(
                rep.rank.expansion_at_k <= 3 * (s.r as u64).pow(levels),
                "{}: expansion exceeds trivial rank",
                s.name
            );
        }
    }

    #[test]
    fn fault_report_prices_recovery_against_the_floor() {
        use fastmm_matrix::dense::Matrix;
        use fastmm_parsim::exec::{try_dist_multiply, DistConfig, TAG_DOWN};
        use fastmm_parsim::{FaultPlan, Recovery};
        let scheme = fastmm_matrix::scheme::strassen();
        let a = Matrix::from_fn(16, 16, |i, j| (i * 16 + j) as f64 * 0.25 - 20.0);
        let b = Matrix::from_fn(16, 16, |i, j| (j * 16 + i) as f64 * 0.125 - 10.0);
        let base_cfg = DistConfig::new(7).with_cutoff(2);
        let (_, base) = try_dist_multiply(&base_cfg, &scheme, &a, &b).unwrap();
        let abft_cfg = DistConfig::new(7)
            .with_cutoff(2)
            .with_recovery(Recovery::Abft)
            .with_fault_plan(FaultPlan::new().with_corrupt_frame(
                0,
                1,
                Some(TAG_DOWN + 1),
                1,
                0,
                13,
            ));
        let (_, faulty) = try_dist_multiply(&abft_cfg, &scheme, &a, &b).unwrap();
        let rep = fault_exec_report(STRASSEN, 16, &base, &faulty);
        assert_eq!(rep.p, 7);
        assert_eq!(rep.frames_corrected, 1);
        assert_eq!(rep.frames_retried, 0);
        // Checksum framing adds parity words to every frame: the faulty
        // run must move strictly more words than the bare baseline.
        assert!(rep.overhead_words_per_rank() > 0);
        assert!(rep.overhead_ratio_to_floor() > 0.0);
        assert!(rep.overhead_fraction_of_baseline() > 0.0);
        // A report of the baseline against itself prices recovery at zero.
        let zero = fault_exec_report(STRASSEN, 16, &base, &base);
        assert_eq!(zero.overhead_words_per_rank(), 0);
        assert_eq!(zero.overhead_fraction_of_baseline(), 0.0);
    }

    #[test]
    fn serve_report_scales_linearly_in_batch_and_splits_across_workers() {
        let scheme = fastmm_matrix::scheme::strassen();
        let one = serve_exec_report(&scheme, 256, 1, 1, 64);
        let batched = serve_exec_report(&scheme, 256, 8, 4, 64);
        assert_eq!(one.cutoff, 64);
        assert_eq!(one.memory_words, 3 * 64 * 64);
        // Per-job numbers match the sequential report verbatim.
        let seq = seq_exec_report(&scheme, 256, 64);
        assert_eq!(one.per_job_arena_words, seq.arena_words);
        assert_eq!(one.per_job_bound_words, seq.seq_bound_words);
        // Batch traffic is job-linear; the worker share divides it evenly.
        assert_eq!(batched.batch_arena_words, 8.0 * one.per_job_arena_words);
        assert_eq!(
            batched.per_worker_share_words,
            batched.batch_arena_words / 4.0
        );
        // workers = 0 is clamped rather than dividing by zero.
        assert_eq!(serve_exec_report(&scheme, 64, 2, 0, 32).workers, 1);
    }

    #[test]
    fn dec_vertices_reference() {
        // k = 1: 4 + 7 = 11; k = 2: 16 + 28 + 49 = 93
        assert_eq!(dec_vertices(STRASSEN, 1) as u64, 11);
        assert_eq!(dec_vertices(STRASSEN, 2) as u64, 93);
    }

    #[test]
    fn pipeline_reproduces_main_theorem_shape() {
        // with h(k) = c(4/7)^k, the induced bound must scale like
        // (n/√M)^{lg7}·M: doubling n multiplies by 7
        let m = 1 << 10;
        let b1 = expansion_io_bound(STRASSEN, 14, m, h_lemma).expect("bound exists");
        let b2 = expansion_io_bound(STRASSEN, 15, m, h_lemma).expect("bound exists");
        // |V(Dec_K)| is a geometric sum, so the ratio approaches 7 from
        // above with a (4/7)^K correction
        assert!((b2.io_words / b1.io_words - 7.0).abs() < 1e-2);
    }

    #[test]
    fn pipeline_scales_in_m_like_theory() {
        // raising M by 4^j changes the bound by ~ (4/7)^j·... :
        // IO(M) ∝ M^{1-lg7/2}; M -> 16M gives factor 16^{1-lg7/2} ≈ 16/7^2
        let b1 = expansion_io_bound(STRASSEN, 16, 1 << 8, h_lemma).unwrap();
        let b2 = expansion_io_bound(STRASSEN, 16, 1 << 12, h_lemma).unwrap();
        let ratio = b2.io_words / b1.io_words;
        let expect = 16.0 / 49.0; // 16^{1 - lg7/2} = 16 / 16^{lg7/2} = 16/7²
        assert!(
            (ratio / expect - 1.0).abs() < 0.25,
            "ratio {ratio} vs {expect} (discrete k rounding allowed)"
        );
    }

    #[test]
    fn small_problems_need_no_io() {
        // if even k = lg_n sets cannot overwhelm M, no bound is produced
        let huge_m = 1 << 30;
        assert!(expansion_io_bound(STRASSEN, 4, huge_m, h_lemma).is_none());
    }

    #[test]
    fn chosen_k_tracks_memory() {
        // larger M forces larger k (bigger sets needed)
        let b_small = expansion_io_bound(STRASSEN, 20, 1 << 6, h_lemma).unwrap();
        let b_large = expansion_io_bound(STRASSEN, 20, 1 << 14, h_lemma).unwrap();
        assert!(b_large.k > b_small.k);
    }

    #[test]
    fn seq_report_models_default_engine_above_bound() {
        let s = fastmm_matrix::scheme::strassen();
        let rep = seq_exec_report(&s, 1024, 64);
        assert_eq!(rep.cutoff, 64);
        assert_eq!(rep.memory_words, 3 * 64 * 64);
        assert!(rep.arena_words > rep.seq_bound_words, "{rep:?}");
        // The model shares the Eq. 1 shape with the bound: the ratio stays
        // within a constant factor across a size doubling.
        let rep2 = seq_exec_report(&s, 2048, 64);
        let (r1, r2) = (
            rep.arena_words / rep.seq_bound_words,
            rep2.arena_words / rep2.seq_bound_words,
        );
        assert!((r1 / r2 - 1.0).abs() < 0.15, "ratios {r1} vs {r2}");
        // explicit cutoff wins over auto resolution
        assert_eq!(seq_exec_report(&s, 256, 32).cutoff, 32);
        // A ragged side is modeled as the engine runs it, zero-extended
        // virtually: 999 splits as 1000 does (and both pad again at 125),
        // with no pad or crop words, still above its own floor.
        let ragged = seq_exec_report(&s, 999, 64);
        assert_eq!(
            ragged.arena_words,
            seq_exec_report(&s, 1000, 64).arena_words
        );
        assert!(ragged.arena_words > ragged.seq_bound_words, "{ragged:?}");
    }

    #[test]
    fn dist_report_evaluates_both_floors_from_measured_stats() {
        use fastmm_matrix::dense::Matrix;
        use fastmm_parsim::caps::CapsPlan;
        use fastmm_parsim::{caps, MachineConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (p, n) = (7usize, 28usize);
        let plan = CapsPlan::new(p, n, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0xD15);
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        let (_, res) = caps(MachineConfig::new(p), &plan, &a, &b);
        let rep = dist_exec_report(STRASSEN, n, &res);
        assert_eq!(rep.p, 7);
        assert_eq!(rep.max_words_per_rank, 2 * plan.words_sent_per_rank());
        assert_eq!(
            rep.max_mem_per_rank as u64,
            plan.projected_peak_words_per_rank()
        );
        // memory-independent floor at p = 7 is n²/4 exactly (ω₀ = lg 7)
        assert!((rep.mem_independent_bound_words - (n * n) as f64 / 4.0).abs() < 1e-9);
        // measured words beat neither floor
        assert!(rep.max_words_per_rank as f64 >= rep.mem_dependent_bound_words);
        assert!(rep.max_words_per_rank as f64 >= rep.mem_independent_bound_words);
        assert!(rep.ratio_to_binding_bound() >= 1.0);
        assert!(rep.critical_path_time > 0.0);
    }
}

//! Schedule independence: the simulated machine computes the same thing
//! under every order in which its runtime grants ready ranks.
//!
//! The runtime grants the ready rank with the least ready time, ties to
//! the lowest id. Virtual clocks follow from the send/receive pairing
//! alone, so that order must decide only how fast a simulation runs.
//! Each case here runs one program under the production order and under
//! seeded pseudo-random grant orders ([`GRANT_ORDERS`], a perturbation
//! that exists in test builds only) and asserts that every order reports
//! what the production order reports: the same gathered bits, the same
//! per-rank counters and clock bits, or the same failure report. It
//! covers the generic engine, CAPS, Cannon, a compute-priced overlapping
//! machine, the raw collectives, failure classification and fault plans
//! that can kill at most one rank. [`a_seed_reorders_grants`] shows that
//! a seed really changes the order.
//!
//! The real heap is the one thing grant order moves: `tests/caps_heap.rs`
//! measures it, so it runs only the production order.

use std::sync::atomic::{AtomicUsize, Ordering};

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::{all_schemes, strassen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cannon::cannon;
use crate::caps::{caps, CapsPlan};
use crate::event::{with_grant_seed, GRANT_ORDERS};
use crate::exec::{try_dist_multiply, DistConfig, TAG_DOWN, TAG_UP};
use crate::fault::{FaultPlan, InjectedFault, InjectedKind};
use crate::frame::Recovery;
use crate::machine::{
    run_spmd, try_run_spmd, MachineConfig, Rank, RankFailed, RankStats, SpmdResult,
};

/// What a run reports, in comparable form.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// The failure report: originating rank, payload, provenance.
    Failed(usize, String, Option<InjectedFault>),
    /// The output bits and, per rank, every counter with the clock's bits.
    Completed {
        outputs: Vec<u64>,
        ranks: Vec<[u64; 9]>,
    },
}

impl Outcome {
    /// The output bits of a completed run.
    fn outputs(&self) -> &[u64] {
        match self {
            Outcome::Completed { outputs, .. } => outputs,
            Outcome::Failed(..) => panic!("the run failed: {self:?}"),
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn completed(outputs: &[f64], stats: &[RankStats]) -> Outcome {
    Outcome::Completed {
        outputs: bits(outputs),
        ranks: stats
            .iter()
            .map(|s| {
                [
                    s.words_sent,
                    s.words_received,
                    s.msgs_sent,
                    s.msgs_received,
                    s.flops,
                    s.clock.to_bits(),
                    s.mem_high_water as u64,
                    s.frames_corrected,
                    s.frames_retried,
                ]
            })
            .collect(),
    }
}

fn failed(e: RankFailed) -> Outcome {
    Outcome::Failed(e.rank, e.payload, e.injected)
}

/// The outcome of a run that gathers a matrix.
fn gathered<R>(run: Result<(Matrix<f64>, SpmdResult<R>), RankFailed>) -> Outcome {
    match run {
        Ok((c, res)) => completed(c.as_slice(), &res.stats),
        Err(e) => failed(e),
    }
}

/// Run `case` under every grant order and assert that each one reports
/// exactly what the production order reports; returns that outcome.
fn same_under_every_order(what: &str, case: impl Fn() -> Outcome) -> Outcome {
    let production = with_grant_seed(None, &case);
    for seed in GRANT_ORDERS.into_iter().flatten() {
        let seeded = with_grant_seed(Some(seed), &case);
        assert!(
            seeded == production,
            "{what}: grant seed {seed} reports {seeded:?}, the production order {production:?}"
        );
    }
    production
}

fn random_pair(m: usize, k: usize, n: usize, rng: &mut StdRng) -> (Matrix<f64>, Matrix<f64>) {
    (Matrix::random(m, k, rng), Matrix::random(k, n, rng))
}

#[test]
fn a_seed_reorders_grants() {
    // Ranks that never block run to completion on their first grant, so
    // the order in which they draw tickets is the order of the grants.
    let tickets = |seed| {
        let next = AtomicUsize::new(0);
        with_grant_seed(seed, || {
            run_spmd(MachineConfig::new(16), |_| {
                next.fetch_add(1, Ordering::SeqCst)
            })
            .outputs
        })
    };
    let production = tickets(None);
    assert_eq!(
        production,
        (0..16).collect::<Vec<_>>(),
        "ties at ready time 0 go to ascending ids"
    );
    let seeded: Vec<Vec<usize>> = GRANT_ORDERS
        .into_iter()
        .flatten()
        .map(|s| tickets(Some(s)))
        .collect();
    for (order, seed) in seeded.iter().zip(GRANT_ORDERS.into_iter().flatten()) {
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, production, "seed {seed}: every rank granted once");
        assert_ne!(*order, production, "seed {seed} must reorder the grants");
        assert_eq!(*order, tickets(Some(seed)), "seed {seed} is repeatable");
    }
    assert_ne!(seeded[0], seeded[1], "two seeds, two orders");
}

/// The generic engine on every registry scheme at `P ∈ {1, 4, 7, 49}`,
/// each operand side `grid² · 2 + extra` for the scheme's own grid.
fn generic_engine_case(extra: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for scheme in all_schemes() {
        let (bm, bk, bn) = scheme.dims();
        let (mm, kk, nn) = (
            bm * bm * 2 + extra,
            bk * bk * 2 + extra,
            bn * bn * 2 + extra,
        );
        let (a, b) = random_pair(mm, kk, nn, &mut rng);
        for p in [1usize, 4, 7, 49] {
            let cfg = DistConfig::new(p).with_cutoff(2);
            let what = format!("{} {mm}x{kk}x{nn} p={p}", scheme.name);
            same_under_every_order(&what, || gathered(try_dist_multiply(&cfg, &scheme, &a, &b)))
                .outputs();
        }
    }
}

#[test]
fn generic_engine_is_order_independent_at_grid_multiples() {
    // two recursion levels of each scheme's grid
    generic_engine_case(0, 0xE0E0);
}

#[test]
fn generic_engine_is_order_independent_at_ragged_shapes() {
    // one past the grid multiple: every level pads
    generic_engine_case(1, 0xE0E1);
}

#[test]
fn caps_is_order_independent_including_dfs_steps() {
    let mut rng = StdRng::seed_from_u64(0xE0CA);
    for (p, n, dfs) in [(7usize, 28usize, 0usize), (7, 56, 1), (49, 28, 0)] {
        let plan = CapsPlan::new(p, n, dfs).unwrap();
        let (a, b) = random_pair(n, n, n, &mut rng);
        same_under_every_order(&format!("caps p={p} n={n} dfs={dfs}"), || {
            gathered(Ok(caps(MachineConfig::new(p), &plan, &a, &b)))
        });
    }
}

#[test]
fn cannon_is_order_independent_at_square_ps() {
    let mut rng = StdRng::seed_from_u64(0xE0C2);
    for (p, n) in [(4usize, 14usize), (49, 28)] {
        let (a, b) = random_pair(n, n, n, &mut rng);
        same_under_every_order(&format!("cannon p={p} n={n}"), || {
            gathered(Ok(cannon(MachineConfig::new(p), &a, &b)))
        });
    }
}

#[test]
fn compute_priced_overlapping_caps_is_order_independent() {
    // γ and the overlap credit are per-rank state: neither may depend on
    // which rank ran first, with or without overlap.
    let mut rng = StdRng::seed_from_u64(0xE04E);
    let n = 28;
    let (a, b) = random_pair(n, n, n, &mut rng);
    let plan = CapsPlan::new(7, n, 0).unwrap();
    for overlap in [0.0, 0.5] {
        let cfg = MachineConfig::new(7).with_gamma(1e-6).with_overlap(overlap);
        same_under_every_order(&format!("caps γ=1e-6 overlap={overlap}"), || {
            gathered(Ok(caps(cfg.clone(), &plan, &a, &b)))
        });
    }
}

#[test]
fn collectives_are_order_independent_on_raw_ranks() {
    // Below the algorithm layer: every collective plus tag stashing.
    let program = |rank: &mut Rank| {
        let group: Vec<usize> = (0..rank.p).collect();
        rank.compute(13 * (rank.id as u64 + 1));
        let data = (rank.id == 0).then(|| vec![1.5, -2.0]);
        let got = rank.bcast(&group, 1000, data);
        rank.barrier(&group, 2000);
        rank.reduce_sum(&group, 3000, vec![rank.id as f64, got[0]])
    };
    for p in [2usize, 5, 8, 13] {
        same_under_every_order(&format!("collectives p={p}"), || {
            let res = run_spmd(MachineConfig::new(p).with_gamma(0.5), program);
            let outputs: Vec<f64> = res.outputs.into_iter().flatten().flatten().collect();
            completed(&outputs, &res.stats)
        });
    }
}

#[test]
fn ring_and_generic_engine_at_p343_are_order_independent() {
    // The scale the runtime exists for: a 343-rank ring exchange with the
    // exact clocks the algebraic model dictates, and the generic engine.
    let p = 343;
    let ring = same_under_every_order("ring p=343", || {
        let res = run_spmd(MachineConfig::new(p), |rank| {
            let to = (rank.id + 1) % rank.p;
            let from = (rank.id + rank.p - 1) % rank.p;
            rank.sendrecv(to, 9, vec![rank.id as f64; 4], from)[0]
        });
        for r in 0..p {
            assert_eq!(res.outputs[r], ((r + p - 1) % p) as f64);
            // send 1 + 0.01·4 = 1.04; recv completes at max(1.04, 1.04) + 1.04
            assert!((res.stats[r].clock - 2.08).abs() < 1e-12, "rank {r}");
        }
        completed(&res.outputs, &res.stats)
    });
    ring.outputs();
    let s = strassen();
    let (a, b) = random_pair(8, 8, 8, &mut StdRng::seed_from_u64(0x343));
    let cfg = DistConfig::new(p).with_cutoff(2);
    let out = same_under_every_order("generic p=343", || {
        gathered(try_dist_multiply(&cfg, &s, &a, &b))
    });
    let want = multiply_scheme(&s, &a, &b, 2);
    assert_eq!(out.outputs(), bits(want.as_slice()), "p=343 gather");
}

#[test]
fn failure_classification_at_p24_is_order_independent() {
    // Rank 13 panics and every other rank dies observing it: the report
    // names the origin, never a cascade victim, whichever rank ran first.
    let report = same_under_every_order("p=24 cascade", || {
        match try_run_spmd(MachineConfig::new(24), |rank| {
            if rank.id == 13 {
                panic!("shared-rules boom");
            }
            rank.recv(13, 0)
        }) {
            Ok(res) => completed(&[], &res.stats),
            Err(e) => failed(e),
        }
    });
    assert!(
        matches!(&report, Outcome::Failed(13, payload, None) if payload.contains("shared-rules boom")),
        "{report:?}"
    );
}

#[test]
fn crash_provenance_is_order_independent() {
    let s = strassen();
    let (a, b) = random_pair(16, 16, 16, &mut StdRng::seed_from_u64(0xFA01));
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_fault_plan(FaultPlan::new().with_crash_at_send(3, 1));
    let report = same_under_every_order("crash at rank 3's first send", || {
        gathered(try_dist_multiply(&cfg, &s, &a, &b))
    });
    let Outcome::Failed(3, _, Some(inj)) = report else {
        panic!("rank 3 must crash with provenance: {report:?}");
    };
    assert_eq!((inj.kind, inj.rank), (InjectedKind::CrashAtSend, 3));
}

#[test]
fn abft_recovery_counters_are_order_independent() {
    // A locally corrected word, a re-requested operand frame and a
    // corrected product frame in one run.
    let s = strassen();
    let (a, b) = random_pair(16, 16, 16, &mut StdRng::seed_from_u64(0xFA08));
    let plan = FaultPlan::new()
        .with_corrupt_frame(0, 1, Some(TAG_DOWN + 1), 1, 0, 11)
        .with_corrupt_frame(0, 1, Some(TAG_DOWN + 1), 1, 1, 44)
        .with_corrupt_frame(1, 0, Some(TAG_UP + 1), 1, 2, 33);
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_recovery(Recovery::Abft)
        .with_fault_plan(plan);
    same_under_every_order("abft", || gathered(try_dist_multiply(&cfg, &s, &a, &b)));
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("ABFT recovers");
    assert!(
        c.bits_eq(&multiply_scheme(&s, &a, &b, 2)),
        "recovered bitwise"
    );
    let total = |f: fn(&RankStats) -> u64| res.stats.iter().map(f).sum::<u64>();
    assert_eq!(
        (total(|s| s.frames_corrected), total(|s| s.frames_retried)),
        (1, 1),
        "one correction, one retry"
    );
}

#[test]
fn single_kill_fault_plans_are_order_independent() {
    // Random crash and corruption plans under every recovery mode, drawn
    // like `tests/fault_plan_proptest.rs` draws them. A plan that can kill
    // two ranks is skipped: the second may reach its own fault or first
    // die observing the first, and only the grant order decides which.
    const P: usize = 7;
    let s = strassen();
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let (a, b) = random_pair(8, 8, 8, &mut rng);
    let mut compared = 0;
    for case in 0..48 {
        let recovery = [Recovery::None, Recovery::Detect, Recovery::Abft][case % 3];
        let crash = rng
            .gen_bool(0.5)
            .then(|| (rng.gen_range(0..P), rng.gen_range(1..=6u64)));
        let corrupt = rng.gen_bool(0.5).then(|| {
            (
                rng.gen_range(1..P),
                rng.gen_range(1..=3u64),
                rng.gen_range(0..64usize),
                rng.gen_range(0..64u32),
            )
        });
        // Ranks a rule can kill: the crash target, and the receiver of a
        // corrupted frame under Detect (it aborts on the bad checksum).
        let mut killed: Vec<usize> = [
            crash.map(|(rank, _)| rank),
            corrupt
                .filter(|_| recovery == Recovery::Detect)
                .map(|(dst, ..)| dst),
        ]
        .into_iter()
        .flatten()
        .collect();
        killed.dedup();
        if killed.len() > 1 {
            continue;
        }
        let mut plan = FaultPlan::new();
        if let Some((rank, nth)) = crash {
            plan = plan.with_crash_at_send(rank, nth);
        }
        if let Some((dst, nth, word, bit)) = corrupt {
            plan = plan.with_corrupt_frame(0, dst, None, nth, word, bit);
        }
        let cfg = DistConfig::new(P)
            .with_cutoff(2)
            .with_recovery(recovery)
            .with_fault_plan(plan);
        same_under_every_order(&format!("{cfg:?}"), || {
            gathered(try_dist_multiply(&cfg, &s, &a, &b))
        });
        compared += 1;
    }
    assert!(compared >= 24, "only {compared} single-kill plans drawn");
}

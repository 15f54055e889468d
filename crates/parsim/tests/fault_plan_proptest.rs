//! Property: **any** `FaultPlan` is deterministic. For an arbitrary
//! combination of a scheduled crash, frame corruption and recovery mode,
//! the same plan on the same scheme and rank count produces a
//! bitwise-identical outcome — the same failure report
//! (rank, payload, injected provenance) when the run dies, the same
//! gather bits and recovery counters when it survives — across repeated
//! runs.
//!
//! Plans that kill two ranks are included: the second target may reach
//! its own crash or first die sending to the already-dead rank, and the
//! runtime decides that race by virtual time, the same way every run.
//! That a plan killing at most one rank reports the same outcome under
//! every grant order is a case of the crate's schedule-independence
//! suite, which alone can perturb the order.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::strassen;
use fastmm_parsim::exec::{try_dist_multiply, DistConfig};
use fastmm_parsim::{FaultPlan, Recovery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const P: usize = 7;

/// Everything that distinguishes two outcomes, reduced to comparable
/// form: either the full failure report or the gather bits plus the
/// per-rank recovery counters and clock bits.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Failed {
        rank: usize,
        payload: String,
        injected: Option<(String, usize, u64)>,
    },
    Completed {
        gather_bits: Vec<u64>,
        corrected: Vec<u64>,
        retried: Vec<u64>,
        clock_bits: Vec<u64>,
    },
}

fn outcome(res: fastmm_parsim::exec::DistRun) -> Outcome {
    match res {
        Err(e) => Outcome::Failed {
            rank: e.rank,
            payload: e.payload,
            injected: e.injected.map(|i| (i.kind.to_string(), i.rank, i.step)),
        },
        Ok((c, r)) => Outcome::Completed {
            gather_bits: c.as_slice().iter().map(|x| x.to_bits()).collect(),
            corrected: r.stats.iter().map(|s| s.frames_corrected).collect(),
            retried: r.stats.iter().map(|s| s.frames_retried).collect(),
            clock_bits: r.stats.iter().map(|s| s.clock.to_bits()).collect(),
        },
    }
}

fn build_plan(
    crash_send: Option<(usize, u64)>,
    corrupt: Option<(usize, u64, usize, u32)>,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if let Some((rank, nth)) = crash_send {
        plan = plan.with_crash_at_send(rank % P, 1 + nth % 6);
    }
    if let Some((dst, nth, word, bit)) = corrupt {
        // tag None: every 0 → dst frame counts, barriers and control
        // traffic included — the property must hold for hostile plans,
        // not just well-aimed ones.
        plan =
            plan.with_corrupt_frame(0, 1 + dst % (P - 1), None, 1 + nth % 3, word % 64, bit % 64);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_plan_is_deterministic_across_runs(
        seed in any::<u64>(),
        crash_send in (any::<bool>(), 0usize..P, any::<u64>()),
        corrupt in (any::<bool>(), any::<usize>(), any::<u64>(), any::<usize>(), any::<u32>()),
        recovery_pick in 0u8..3,
    ) {
        let s = strassen();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::<f64>::random(8, 8, &mut rng);
        let b = Matrix::<f64>::random(8, 8, &mut rng);
        let recovery = match recovery_pick {
            0 => Recovery::None,
            1 => Recovery::Detect,
            _ => Recovery::Abft,
        };
        let plan = build_plan(
            crash_send.0.then_some((crash_send.1, crash_send.2)),
            corrupt.0.then_some((corrupt.1, corrupt.2, corrupt.3, corrupt.4)),
        );
        let run = || {
            let cfg = DistConfig::new(P)
                .with_cutoff(2)
                .with_recovery(recovery)
                .with_fault_plan(plan.clone());
            outcome(try_dist_multiply(&cfg, &s, &a, &b))
        };
        prop_assert_eq!(run(), run(), "not repeatable for plan {:?}", &plan);
    }
}

//! Event-vs-lockstep equivalence suite: the event-driven runtime must be
//! observationally identical to the retained lockstep reference.
//!
//! The virtual clocks of the α-β-γ machine are computed algebraically from
//! the send/receive pairing, never from real execution order — so the two
//! runtimes must agree **bitwise** on every gathered product, every
//! per-rank counter, and every clock, for every registry scheme, rank
//! count, and shape. Any divergence means the event scheduler changed
//! semantics, not just scalability; this suite is the contract that lets
//! `Runtime::Event` be the default.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::{all_schemes, strassen};
use fastmm_parsim::cannon::cannon;
use fastmm_parsim::caps;
use fastmm_parsim::caps::CapsPlan;
use fastmm_parsim::exec::{dist_multiply, DistConfig};
use fastmm_parsim::machine::{run_spmd, MachineConfig, Rank, RankStats, Runtime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The strong-scaling rank set of the e12 experiment.
const STRONG_SCALING_P: [usize; 4] = [1, 4, 7, 49];

/// Every counter and clock of two runs must agree bit-for-bit.
fn assert_stats_identical(ev: &[RankStats], ls: &[RankStats], what: &str) {
    assert_eq!(ev.len(), ls.len(), "{what}: rank count");
    for (r, (e, l)) in ev.iter().zip(ls).enumerate() {
        assert_eq!(e.words_sent, l.words_sent, "{what} rank {r}: words_sent");
        assert_eq!(
            e.words_received, l.words_received,
            "{what} rank {r}: words_received"
        );
        assert_eq!(e.msgs_sent, l.msgs_sent, "{what} rank {r}: msgs_sent");
        assert_eq!(
            e.msgs_received, l.msgs_received,
            "{what} rank {r}: msgs_received"
        );
        assert_eq!(e.flops, l.flops, "{what} rank {r}: flops");
        assert_eq!(
            e.mem_high_water, l.mem_high_water,
            "{what} rank {r}: mem_high_water"
        );
        assert_eq!(
            e.clock.to_bits(),
            l.clock.to_bits(),
            "{what} rank {r}: clock {} vs {}",
            e.clock,
            l.clock
        );
    }
}

#[test]
fn generic_engine_equivalent_for_every_registry_scheme_p_and_shape() {
    let mut rng = StdRng::seed_from_u64(0xE0E0);
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
            for p in STRONG_SCALING_P {
                let what = format!("{} {mm}x{kk}x{nn} p={p}", scheme.name);
                let ev_cfg = DistConfig::new(p)
                    .with_cutoff(2)
                    .with_runtime(Runtime::Event);
                let ls_cfg = DistConfig::new(p)
                    .with_cutoff(2)
                    .with_runtime(Runtime::Lockstep);
                let (c_ev, r_ev) = dist_multiply(&ev_cfg, &scheme, &a, &b);
                let (c_ls, r_ls) = dist_multiply(&ls_cfg, &scheme, &a, &b);
                assert!(c_ev.bits_eq(&c_ls), "{what}: gathered products diverge");
                assert_stats_identical(&r_ev.stats, &r_ls.stats, &what);
            }
        }
    }
}

#[test]
fn caps_equivalent_including_dfs_interleavings() {
    let mut rng = StdRng::seed_from_u64(0xE0CA);
    for (p, n, dfs) in [(7usize, 28usize, 0usize), (7, 56, 1), (49, 28, 0)] {
        let plan = CapsPlan::new(p, n, dfs).unwrap();
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        let (c_ev, r_ev) = caps(
            MachineConfig::new(p).with_runtime(Runtime::Event),
            &plan,
            &a,
            &b,
        );
        let (c_ls, r_ls) = caps(
            MachineConfig::new(p).with_runtime(Runtime::Lockstep),
            &plan,
            &a,
            &b,
        );
        let what = format!("caps p={p} n={n} dfs={dfs}");
        assert!(c_ev.bits_eq(&c_ls), "{what}: gathered products diverge");
        assert_stats_identical(&r_ev.stats, &r_ls.stats, &what);
    }
}

#[test]
fn cannon_equivalent_at_square_ps() {
    let mut rng = StdRng::seed_from_u64(0xE0C2);
    for (p, n) in [(4usize, 14usize), (49, 28)] {
        let a = Matrix::<f64>::random(n, n, &mut rng);
        let b = Matrix::<f64>::random(n, n, &mut rng);
        let (c_ev, r_ev) = cannon(MachineConfig::new(p).with_runtime(Runtime::Event), &a, &b);
        let (c_ls, r_ls) = cannon(
            MachineConfig::new(p).with_runtime(Runtime::Lockstep),
            &a,
            &b,
        );
        let what = format!("cannon p={p} n={n}");
        assert!(c_ev.bits_eq(&c_ls), "{what}: products diverge");
        assert_stats_identical(&r_ev.stats, &r_ls.stats, &what);
    }
}

#[test]
fn equivalence_holds_under_heterogeneous_overlapping_configs() {
    // The cost model (γ and the overlap credit) lives in `Rank`, shared
    // by both runtimes — so equivalence must survive a compute-priced,
    // overlapping machine, not just the communication-only default.
    let mut rng = StdRng::seed_from_u64(0xE04E);
    let n = 28;
    let a = Matrix::<f64>::random(n, n, &mut rng);
    let b = Matrix::<f64>::random(n, n, &mut rng);
    let plan = CapsPlan::new(7, n, 0).unwrap();
    let base = MachineConfig::new(7).with_gamma(1e-6).with_overlap(0.5);
    let (c_ev, r_ev) = caps(base.clone().with_runtime(Runtime::Event), &plan, &a, &b);
    let (c_ls, r_ls) = caps(base.with_runtime(Runtime::Lockstep), &plan, &a, &b);
    assert!(c_ev.bits_eq(&c_ls), "overlapping products diverge");
    assert_stats_identical(&r_ev.stats, &r_ls.stats, "overlapping caps");
}

#[test]
fn collectives_equivalent_on_raw_ranks() {
    // Below the algorithm layer: a raw SPMD program exercising every
    // collective (barrier, bcast, reduce_sum) plus tag stashing agrees
    // across runtimes.
    let program = |rank: &mut Rank| {
        let group: Vec<usize> = (0..rank.p).collect();
        rank.compute(13 * (rank.id as u64 + 1));
        let data = (rank.id == 0).then(|| vec![1.5, -2.0]);
        let got = rank.bcast(&group, 1000, data);
        rank.barrier(&group, 2000);
        rank.reduce_sum(&group, 3000, vec![rank.id as f64, got[0]])
    };
    for p in [2usize, 5, 8, 13] {
        let r_ev = run_spmd(
            MachineConfig::new(p)
                .with_gamma(0.5)
                .with_runtime(Runtime::Event),
            program,
        );
        let r_ls = run_spmd(
            MachineConfig::new(p)
                .with_gamma(0.5)
                .with_runtime(Runtime::Lockstep),
            program,
        );
        assert_eq!(r_ev.outputs, r_ls.outputs, "p={p}: collective outputs");
        assert_stats_identical(&r_ev.stats, &r_ls.stats, &format!("collectives p={p}"));
    }
}

#[test]
fn event_runtime_reaches_p_beyond_lockstep_scale_cheaply() {
    // A smoke anchor for the point of the rewrite: a 343-rank ring
    // exchange (which would build 117k+ channels under lockstep) runs in
    // the event runtime with O(p) state, producing the exact clocks the
    // algebraic model dictates.
    let p = 343;
    let res = run_spmd(MachineConfig::new(p), |rank| {
        let to = (rank.id + 1) % rank.p;
        let from = (rank.id + rank.p - 1) % rank.p;
        let got = rank.sendrecv(to, 9, vec![rank.id as f64; 4], from);
        got[0]
    });
    for r in 0..p {
        assert_eq!(res.outputs[r], ((r + p - 1) % p) as f64);
        // send 1 + 0.01·4 = 1.04; recv completes at max(1.04, 1.04) + 1.04
        assert!(
            (res.stats[r].clock - 2.08).abs() < 1e-12,
            "rank {r}: {}",
            res.stats[r].clock
        );
    }
    // strassen() sanity: the generic engine also runs at this scale in the
    // time budget of a unit test (debug build included).
    let s = strassen();
    let mut rng = StdRng::seed_from_u64(0x343);
    let a = Matrix::<f64>::random(8, 8, &mut rng);
    let b = Matrix::<f64>::random(8, 8, &mut rng);
    let (c, _) = dist_multiply(&DistConfig::new(343).with_cutoff(2), &s, &a, &b);
    let want = fastmm_matrix::recursive::multiply_scheme(&s, &a, &b, 2);
    assert!(c.bits_eq(&want), "p=343 generic gather diverged");
}

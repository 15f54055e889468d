//! Fault-injection coverage at scale: `try_run_spmd`'s failure
//! classification — originating panic vs `PeerHungUp` cascade victims vs
//! detected deadlock — verified at p = 343. The same classification under
//! seeded grant orders (at p = 24) is a case of the crate's
//! schedule-independence suite.

use fastmm_parsim::machine::{try_run_spmd, MachineConfig};

const P: usize = 343;

#[test]
fn originating_panic_named_at_p343_with_full_cascade() {
    // Rank 170 panics mid-protocol; every other rank is chained onto it
    // through a ring of receives, so all 342 survivors die as cascade
    // victims. The report must still name rank 170 with its payload.
    let err = try_run_spmd(MachineConfig::new(P), |rank| {
        if rank.id == 170 {
            panic!("injected failure at rank {}", rank.id);
        }
        // ring: everyone waits on its predecessor; the chain breaks at 170
        let from = (rank.id + P - 1) % P;
        if rank.id != 171 {
            rank.recv(from, 0)
        } else {
            rank.recv(170, 0)
        }
    })
    .expect_err("must fail");
    assert_eq!(err.rank, 170, "originating rank: {err}");
    assert!(
        err.payload.contains("injected failure at rank 170"),
        "payload preserved through 342 victims: {err}"
    );
}

#[test]
fn lowest_id_genuine_panic_wins_among_racing_failures() {
    // Three genuine panics race; the deterministic report is the lowest
    // rank id among them, never a victim.
    let err = try_run_spmd(MachineConfig::new(P), |rank| {
        if rank.id % 100 == 7 {
            // ranks 7, 107, 207, 307
            panic!("boom {}", rank.id);
        }
        let peer = if rank.id == 0 { 7 } else { rank.id - 1 };
        rank.recv(peer, 1)
    })
    .expect_err("must fail");
    assert_eq!(err.rank, 7, "lowest genuine panic: {err}");
    assert!(err.payload.contains("boom 7"), "{err}");
}

#[test]
fn early_exit_cascade_reports_lowest_victim() {
    // No genuine panic at all: rank 0 returns without sending, every
    // other rank starves on it. The fallback names the lowest victim.
    let err = try_run_spmd(MachineConfig::new(P), |rank| {
        if rank.id == 0 {
            return 0.0;
        }
        rank.recv(0, 3)[0]
    })
    .expect_err("must fail");
    assert_eq!(err.rank, 1, "lowest victim fallback: {err}");
    assert!(err.payload.contains("victim"), "{err}");
}

#[test]
fn deadlock_detected_at_scale_names_lowest_blocked_rank() {
    // A 343-cycle of receives with no send in flight is reported, not
    // left to hang the process.
    let err = try_run_spmd(MachineConfig::new(P), |rank| {
        let from = (rank.id + 1) % P;
        rank.recv(from, 9)
    })
    .expect_err("deadlock must be reported");
    assert_eq!(err.rank, 0, "{err}");
    assert!(err.payload.contains("deadlock"), "{err}");
}

#[test]
fn panic_in_one_subtree_leaves_report_deterministic_across_runs() {
    // Failure classification is part of the determinism contract: the
    // same faulty program reports the same rank and payload every run.
    let run = || {
        try_run_spmd(MachineConfig::new(P), |rank| {
            if rank.id == 299 {
                panic!("deterministic boom");
            }
            if rank.id % 7 == 0 {
                rank.recv(299, 5);
            }
            rank.id
        })
        .expect_err("must fail")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.rank, b.rank);
    assert_eq!(a.payload, b.payload);
    assert_eq!(a.rank, 299);
}

#[test]
fn clean_large_p_run_still_succeeds_after_fault_tests() {
    // Anchor: the same scale with no fault completes and aggregates.
    let res = try_run_spmd(MachineConfig::new(P), |rank| {
        let to = (rank.id + 1) % P;
        let from = (rank.id + P - 1) % P;
        rank.sendrecv(to, 2, vec![rank.id as f64], from)[0] as usize
    })
    .expect("clean run");
    assert_eq!(res.outputs.len(), P);
    assert!(res.stats.iter().all(|s| s.msgs_sent == 1));
}

//! End-to-end corruption recovery for the distributed engine: silent
//! corruption is silent only in `Recovery::None`, `Recovery::Detect`
//! aborts loudly, and `Recovery::Abft` corrects — locally for a single
//! word, by bounded re-request otherwise — with a recovered gather that
//! is **bitwise identical** to the sequential `multiply_scheme`. A
//! scheduled crash's provenance, and the same recovery counters under
//! every grant order, are cases of the crate's schedule-independence
//! suite.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::strassen;
use fastmm_parsim::exec::{
    try_dist_caps, try_dist_multiply, DistConfig, DistError, DEPTH_STRIDE, TAG_DOWN, TAG_UP,
};
use fastmm_parsim::{FaultPlan, InjectedKind, Recovery};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Matrix::random(n, n, &mut rng),
        Matrix::random(n, n, &mut rng),
    )
}

/// The first operand frame of the top-level exchange at p = 7: child
/// l = 1 goes from the leader (rank 0) to sub-leader rank 1.
fn first_down_rule_p7() -> (usize, usize, Option<u64>) {
    (0, 1, Some(TAG_DOWN + 1))
}

#[test]
fn corruption_is_silent_under_recovery_none() {
    // The baseline the recovery ladder exists for: with no checksums, a
    // flipped mantissa bit sails through and the gather is simply wrong.
    let s = strassen();
    let (a, b) = sample(16, 0xFA03);
    let want = multiply_scheme(&s, &a, &b, 2);
    let (src, dst, tag) = first_down_rule_p7();
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_fault_plan(FaultPlan::new().with_corrupt_frame(src, dst, tag, 1, 0, 52));
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("run completes — that's the bug");
    assert!(
        !c.bits_eq(&want),
        "a corrupted operand must change the product"
    );
    assert!(res.stats.iter().all(|st| st.frames_corrected == 0));
}

#[test]
fn detect_mode_aborts_loudly_with_corruption_provenance() {
    let s = strassen();
    let (a, b) = sample(16, 0xFA04);
    let (src, dst, tag) = first_down_rule_p7();
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_recovery(Recovery::Detect)
        .with_fault_plan(FaultPlan::new().with_corrupt_frame(src, dst, tag, 1, 0, 52));
    let err = try_dist_multiply(&cfg, &s, &a, &b).expect_err("Detect must refuse to continue");
    assert_eq!(err.rank, dst, "the receiver detects: {err}");
    let inj = err.injected.expect("provenance");
    assert_eq!(inj.kind, InjectedKind::CorruptionDetected);
}

#[test]
fn abft_corrects_a_single_word_locally_and_bitwise() {
    let s = strassen();
    let (a, b) = sample(16, 0xFA05);
    let want = multiply_scheme(&s, &a, &b, 2);
    let (src, dst, tag) = first_down_rule_p7();
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_recovery(Recovery::Abft)
        .with_fault_plan(FaultPlan::new().with_corrupt_frame(src, dst, tag, 1, 3, 17));
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("ABFT survives one flipped bit");
    assert!(c.bits_eq(&want), "recovered gather must be bitwise exact");
    assert_eq!(
        res.stats.iter().map(|st| st.frames_corrected).sum::<u64>(),
        1,
        "exactly one local correction"
    );
    assert_eq!(
        res.stats.iter().map(|st| st.frames_retried).sum::<u64>(),
        0,
        "a single word never needs the re-request path"
    );
}

#[test]
fn abft_rerequests_an_uncorrectable_frame_and_still_lands_bitwise() {
    // Two flipped words in the same frame defeat single-word location;
    // the receiver must RETRY and the (clean) resend completes the run.
    let s = strassen();
    let (a, b) = sample(16, 0xFA06);
    let want = multiply_scheme(&s, &a, &b, 2);
    let (src, dst, tag) = first_down_rule_p7();
    let plan = FaultPlan::new()
        .with_corrupt_frame(src, dst, tag, 1, 0, 11)
        .with_corrupt_frame(src, dst, tag, 1, 1, 44);
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_recovery(Recovery::Abft)
        .with_fault_plan(plan);
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("re-request must recover");
    assert!(c.bits_eq(&want), "resent frame must restore exact bits");
    assert!(
        res.stats.iter().map(|st| st.frames_retried).sum::<u64>() >= 1,
        "the uncorrectable frame must have been re-requested"
    );
}

#[test]
fn abft_corrects_an_up_frame_too() {
    // Corruption on the gather path (sub-leader → leader product frame)
    // exercises the deferred-ack protocol of phase 2/3.
    let s = strassen();
    let (a, b) = sample(16, 0xFA07);
    let want = multiply_scheme(&s, &a, &b, 2);
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_recovery(Recovery::Abft)
        .with_fault_plan(FaultPlan::new().with_corrupt_frame(1, 0, Some(TAG_UP + 1), 1, 2, 33));
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("ABFT survives UP corruption");
    assert!(c.bits_eq(&want), "recovered gather must be bitwise exact");
    assert_eq!(
        res.stats.iter().map(|st| st.frames_corrected).sum::<u64>(),
        1
    );
}

#[test]
fn abft_rerequests_an_uncorrectable_up_frame() {
    // Two flipped words in a product frame: the leader re-requests it and
    // the sub-leader resends its retained clean copy through the
    // deferred-ack path. Corrupting every resend exhausts the retries.
    let s = strassen();
    let (a, b) = sample(16, 0xFA13);
    let want = multiply_scheme(&s, &a, &b, 2);
    let corrupt = |plan: FaultPlan, nth| {
        plan.with_corrupt_frame(1, 0, Some(TAG_UP + 1), nth, 0, 11)
            .with_corrupt_frame(1, 0, Some(TAG_UP + 1), nth, 1, 44)
    };
    let cfg = |plan| {
        DistConfig::new(7)
            .with_cutoff(2)
            .with_recovery(Recovery::Abft)
            .with_fault_plan(plan)
    };
    let (c, res) = try_dist_multiply(&cfg(corrupt(FaultPlan::new(), 1)), &s, &a, &b)
        .expect("re-request must recover");
    assert!(c.bits_eq(&want), "resent frame must restore exact bits");
    assert_eq!(res.stats.iter().map(|st| st.frames_retried).sum::<u64>(), 1);
    let every_send = (1..=5).fold(FaultPlan::new(), corrupt);
    let err = try_dist_multiply(&cfg(every_send), &s, &a, &b).expect_err("retries must run out");
    assert_eq!(err.rank, 0, "the leader gives up: {err}");
    let inj = err.injected.expect("provenance");
    assert_eq!(inj.kind, InjectedKind::CorruptionDetected);
    assert!(
        err.payload.contains("still corrupt after 3 retries"),
        "{}",
        err.payload
    );
}

#[test]
fn abft_at_p343_corrects_injected_corruption_bitwise() {
    // The acceptance scenario: at p = 343 (three nested levels of 7
    // subgroups), a flipped bit in a top-level operand frame is detected,
    // located, and corrected, and the recovered gather equals the
    // sequential engine bit for bit.
    let s = strassen();
    let (a, b) = sample(32, 0xFA09);
    let want = multiply_scheme(&s, &a, &b, 2);
    // Subgroup 1 of 343 ranks starts at rank 49: child l = 1's frame.
    let cfg = DistConfig::new(343)
        .with_cutoff(2)
        .with_recovery(Recovery::Abft)
        .with_fault_plan(FaultPlan::new().with_corrupt_frame(0, 49, Some(TAG_DOWN + 1), 1, 5, 7));
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("ABFT at scale");
    assert!(c.bits_eq(&want), "p=343 recovered gather must be bitwise");
    assert_eq!(
        res.stats.iter().map(|st| st.frames_corrected).sum::<u64>(),
        1
    );
}

#[test]
fn corruption_at_a_deeper_level_is_also_corrected() {
    // Depth-1 frames use the next tag stride; the sub-leader of the
    // second level re-scatters within its own subgroup.
    let s = strassen();
    let (a, b) = sample(32, 0xFA10);
    let want = multiply_scheme(&s, &a, &b, 2);
    // p = 49: subgroup 1 = ranks 7..14, its leader 7 re-scatters at
    // depth 1 to its own sub-leader 8 (child l = 1 again).
    let cfg = DistConfig::new(49)
        .with_cutoff(2)
        .with_recovery(Recovery::Abft)
        .with_fault_plan(FaultPlan::new().with_corrupt_frame(
            7,
            8,
            Some(TAG_DOWN + DEPTH_STRIDE + 1),
            1,
            0,
            3,
        ));
    let (c, res) = try_dist_multiply(&cfg, &s, &a, &b).expect("depth-1 recovery");
    assert!(c.bits_eq(&want));
    assert_eq!(
        res.stats.iter().map(|st| st.frames_corrected).sum::<u64>(),
        1
    );
}

#[test]
fn caps_corrects_a_single_word_in_its_shuffle() {
    // CAPS recovery is local-correct-or-die (the BFS all-to-all admits no
    // re-request), so a single flipped bit must be absorbed in place.
    let s = strassen();
    let (a, b) = sample(56, 0xFA12);
    let run = |recovery, plan: Option<FaultPlan>| {
        let mut cfg = DistConfig::new(7).with_cutoff(2).with_recovery(recovery);
        if let Some(p) = plan {
            cfg = cfg.with_fault_plan(p);
        }
        try_dist_caps(&cfg, &s, &a, &b)
    };
    let (c_clean, _) = run(Recovery::None, None).expect("clean CAPS");
    // Any first frame from rank 0 to rank 1 in the BFS shuffle.
    let plan = FaultPlan::new().with_corrupt_frame(0, 1, None, 1, 0, 21);
    let (c_abft, res) = run(Recovery::Abft, Some(plan.clone())).expect("CAPS local correction");
    assert!(c_abft.bits_eq(&c_clean), "corrected CAPS gather is bitwise");
    assert!(res.stats.iter().map(|st| st.frames_corrected).sum::<u64>() >= 1);
    // The same corruption under Detect aborts with provenance.
    match run(Recovery::Detect, Some(plan)) {
        Err(DistError::Rank(rf)) => {
            let inj = rf.injected.expect("provenance");
            assert_eq!(inj.kind, InjectedKind::CorruptionDetected);
        }
        other => panic!("Detect must abort, got {:?}", other.map(|(c, _)| c.rows())),
    }
}

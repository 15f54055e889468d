//! Metamorphic tests of the overlap-aware cost model.
//!
//! The overlap model banks `overlap × γ·flops` of every compute
//! interval as credit and spends it against the raw `α + β·len` cost of
//! later communication on the same rank. These properties pin it down:
//!
//! * `overlap = 0` charges every communication in full — it must
//!   reproduce the original non-overlapping critical path **bitwise**;
//! * the critical path is monotone **non-increasing** in the overlap
//!   factor (more credit can only hide more);
//! * the critical path is monotone **non-decreasing** in β (every charged
//!   interval can only grow).

use fastmm_matrix::dense::Matrix;
use fastmm_parsim::caps;
use fastmm_parsim::caps::CapsPlan;
use fastmm_parsim::machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn operands(n: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        Matrix::random(n, n, &mut rng),
        Matrix::random(n, n, &mut rng),
    )
}

/// CAPS critical path at the given machine knobs (γ > 0 so compute exists
/// to overlap against).
fn caps_critical_path(cfg: MachineConfig, n: usize) -> f64 {
    let plan = CapsPlan::new(cfg.p, n, 0).unwrap();
    let (a, b) = operands(n, 0x0713);
    let (_, res) = caps(cfg, &plan, &a, &b);
    res.critical_path_time()
}

#[test]
fn zero_overlap_reproduces_original_critical_path_bitwise() {
    // overlap = 0 (the default) banks no credit: setting it explicitly
    // changes no clock bit, and every rank's clock covers the full
    // α + β·len of each message end plus γ·flops, which only waiting adds
    // to.
    let n = 28;
    let (a, b) = operands(n, 0x00B5);
    let plan = CapsPlan::new(7, n, 0).unwrap();
    let base = MachineConfig::new(7).with_gamma(1e-6);
    let (_, r_new) = caps(base.clone().with_overlap(0.0), &plan, &a, &b);
    let (_, r_ref) = caps(base.clone(), &plan, &a, &b);
    for (e, l) in r_new.stats.iter().zip(&r_ref.stats) {
        assert_eq!(e.clock.to_bits(), l.clock.to_bits());
        let full = base.alpha * (e.msgs_sent + e.msgs_received) as f64
            + base.beta * (e.words_sent + e.words_received) as f64
            + base.gamma * e.flops as f64;
        assert!(e.clock >= full * (1.0 - 1e-12), "{} < {full}", e.clock);
    }
    assert_eq!(
        r_new.critical_path_time().to_bits(),
        r_ref.critical_path_time().to_bits()
    );
}

#[test]
fn critical_path_monotone_non_increasing_in_overlap() {
    let n = 56;
    let mut last = f64::INFINITY;
    let mut first = 0.0;
    let mut final_t = 0.0;
    for (i, overlap) in [0.0, 0.25, 0.5, 0.75, 1.0].into_iter().enumerate() {
        let cfg = MachineConfig::new(7).with_gamma(1e-4).with_overlap(overlap);
        let t = caps_critical_path(cfg, n);
        assert!(
            t <= last,
            "overlap {overlap}: critical path rose from {last} to {t}"
        );
        if i == 0 {
            first = t;
        }
        final_t = t;
        last = t;
    }
    assert!(
        final_t < first,
        "full overlap must strictly hide something: {final_t} !< {first}"
    );
}

#[test]
fn critical_path_monotone_non_decreasing_in_beta() {
    let n = 56;
    let mut last = 0.0;
    for beta in [0.0, 0.005, 0.01, 0.05, 0.2] {
        let cfg = MachineConfig::new(7)
            .with_beta(beta)
            .with_gamma(1e-4)
            .with_overlap(0.5);
        let t = caps_critical_path(cfg, n);
        assert!(
            t >= last,
            "beta {beta}: critical path fell from {last} to {t}"
        );
        last = t;
    }
}

#[test]
fn overlap_never_hides_latency_free_lower_bound_of_compute() {
    // Overlap spends compute credit on communication; it can never push
    // the critical path below the pure-compute floor of the slowest rank.
    let n = 56;
    let cfg = MachineConfig::new(7).with_gamma(1e-4).with_overlap(1.0);
    let plan = CapsPlan::new(7, n, 0).unwrap();
    let (a, b) = operands(n, 0xF100);
    let (_, res) = caps(cfg, &plan, &a, &b);
    let compute_floor = res
        .stats
        .iter()
        .map(|s| s.flops as f64 * 1e-4)
        .fold(0.0, f64::max);
    assert!(res.critical_path_time() >= compute_floor);
}

//! E14 — fault injection and ABFT recovery: the generic distributed
//! engine swept through a fault × recovery matrix (clean / single-bit /
//! double-bit / crash under none / detect / abft) at `p ∈ {49, 343}`,
//! with every ABFT-recovered gather asserted bitwise identical to
//! `multiply_scheme` and the recovery overhead priced in words/rank as a
//! ratio to the memory-independent floor `n²/p^{2/ω₀}`; plus serve-engine
//! supervision chaos rows. Written machine-readably to
//! `target/BENCH_faults.json`; refresh the committed copy with
//! `cp target/BENCH_faults.json .`.
//!
//! Usage: `repro_faults [p...] | --demo-failure` — rank counts must be
//! powers of 7, defaulting to 49 and 343. `--demo-failure` instead runs
//! one scheduled-crash scenario to completion of the *failure* path:
//! it prints the structured `FASTMM_RUN_FAILED` report to stderr and
//! exits nonzero — the contract every `repro_*` binary follows when a
//! simulated rank dies (exercised by the smoke suite).
fn main() {
    let (ps, demo) = fastmm_bench::parse_argv(
        "[p...] | --demo-failure",
        Some("--demo-failure"),
        usize::MAX,
        |p| p >= 7 && 7usize.pow(p.ilog(7)) == p,
    );
    if demo {
        demo_failure();
    }
    let ps = if ps.is_empty() { vec![49, 343] } else { ps };
    let (report, rows) = fastmm_bench::e14_faults(&ps, 32);
    print!("{report}");
    let path = fastmm_bench::write_artifact("BENCH_faults.json", &rows);
    println!("  machine-readable emit: {}", path.display());
}

/// Run a deliberately crashed simulation and take the shared failure
/// exit path: structured stderr report, nonzero exit code.
fn demo_failure() -> ! {
    use fastmm_parsim::exec::{try_dist_multiply, DistConfig};
    use fastmm_parsim::FaultPlan;
    let scheme = fastmm_matrix::scheme::strassen();
    let a = fastmm_matrix::dense::Matrix::from_fn(16, 16, |i, j| (i + 2 * j) as f64);
    let b = fastmm_matrix::dense::Matrix::from_fn(16, 16, |i, j| (i * j) as f64 - 8.0);
    let cfg = DistConfig::new(7)
        .with_cutoff(2)
        .with_fault_plan(FaultPlan::new().with_crash_at_send(3, 1));
    match try_dist_multiply(&cfg, &scheme, &a, &b) {
        Err(e) => fastmm_bench::exit_on_rank_failure("repro_faults --demo-failure", &e),
        Ok(_) => {
            eprintln!("demo crash did not fire — the fault plan is broken");
            std::process::exit(1);
        }
    }
}

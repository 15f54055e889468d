//! Communication-optimal parallel Strassen (CAPS) on the simulated
//! distributed-memory machine, head-to-head with Cannon's classical 2D
//! algorithm — the "attained by" column of Table I.
//!
//! Run with: `cargo run --release --example parallel_strassen`

use fastmm_core::prelude::*;
use fastmm_parsim::cannon::cannon;
use fastmm_parsim::caps::{caps, CapsPlan};
use fastmm_parsim::machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let p = 49;
    let n = 196;
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::<f64>::random(n, n, &mut rng);
    let b = Matrix::<f64>::random(n, n, &mut rng);
    let reference = multiply_naive(&a, &b);

    println!("p = {p}, n = {n}\n");

    // Cannon: the classical 2D baseline, M = Θ(n²/p).
    let (c_cannon, r_cannon) = cannon(MachineConfig::new(p), &a, &b);
    println!(
        "cannon : words/rank = {:>7}, msgs/rank = {:>4}, mem/rank = {:>6}, err = {:.1e}",
        r_cannon.max_words(),
        r_cannon.max_msgs(),
        r_cannon.max_memory(),
        c_cannon.max_abs_diff(&reference, |x| x)
    );

    // CAPS, BFS-only (maximal memory, minimal communication).
    let plan = CapsPlan::new(p, n, 0).expect("valid plan");
    let (c_caps, r_caps) = caps(MachineConfig::new(p), &plan, &a, &b);
    println!(
        "caps   : words/rank = {:>7}, msgs/rank = {:>4}, mem/rank = {:>6}, err = {:.1e}",
        r_caps.max_words(),
        r_caps.max_msgs(),
        r_caps.max_memory(),
        c_caps.max_abs_diff(&reference, |x| x)
    );

    // CAPS with a DFS step: less memory, more communication.
    if let Ok(plan_dfs) = CapsPlan::new(p, 392, 1) {
        let a2 = Matrix::<f64>::random(392, 392, &mut rng);
        let b2 = Matrix::<f64>::random(392, 392, &mut rng);
        let (_, r_dfs) = caps(MachineConfig::new(p), &plan_dfs, &a2, &b2);
        let plan_bfs = CapsPlan::new(p, 392, 0).expect("valid");
        let (_, r_bfs) = caps(MachineConfig::new(p), &plan_bfs, &a2, &b2);
        println!(
            "\nn = 392 schedule trade-off: BFS-only mem {} words {} | 1 DFS step mem {} words {}",
            r_bfs.max_memory(),
            r_bfs.max_words(),
            r_dfs.max_memory(),
            r_dfs.max_words()
        );
    }

    // What the theory says each must move (Cor. 1.2/1.4 with measured M).
    let m_cannon = r_cannon.max_memory();
    let m_caps = r_caps.max_memory();
    println!(
        "\nclassical LB at M = {m_cannon}: {:.0} words/rank; Strassen-like LB at M = {m_caps}: {:.0} words/rank",
        par_bandwidth_lower_bound(CLASSICAL, n, m_cannon, p),
        par_bandwidth_lower_bound(STRASSEN, n, m_caps, p),
    );
    println!(
        "caps/cannon words ratio = {:.2} (Strassen-like algorithms may — and do — move fewer words)",
        r_caps.max_words() as f64 / r_cannon.max_words() as f64
    );
}

//! Sweep fast-memory size M and watch sequential communication costs track
//! `(n/√M)^{ω₀}·M` — Theorem 1.1/1.3 and Equation (1) in one plot-ready
//! table.
//!
//! Run with: `cargo run --release --example memory_sweep`

use fastmm_core::prelude::*;
use fastmm_memsim::explicit::{multiply_blocked_explicit, multiply_dfs_explicit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 128;
    let mut rng = StdRng::seed_from_u64(3);
    let a = Matrix::<f64>::random(n, n, &mut rng);
    let b = Matrix::<f64>::random(n, n, &mut rng);

    println!("n = {n}; words moved vs M (both measured on the two-level machine)");
    println!("M      strassen(meas)  strassen-LB  ratio   classical(meas)  classical-LB  ratio");
    for m in [96usize, 192, 384, 768, 1536, 3072, 6144] {
        let s = multiply_dfs_explicit(&strassen(), &a, &b, m);
        let c = multiply_blocked_explicit(&a, &b, m);
        let slb = seq_bandwidth_lower_bound(STRASSEN, n, m);
        let clb = seq_bandwidth_lower_bound(CLASSICAL, n, m);
        println!(
            "{:<6} {:<15} {:<12.0} {:<7.2} {:<16} {:<13.0} {:.2}",
            m,
            s.io.total_words(),
            slb,
            s.io.total_words() as f64 / slb,
            c.io.total_words(),
            clb,
            c.io.total_words() as f64 / clb,
        );
    }
    println!();
    println!("Latency (messages) follows bandwidth / M — footnote 8:");
    for m in [192usize, 768, 3072] {
        let s = multiply_dfs_explicit(&strassen(), &a, &b, m);
        println!(
            "M = {:<5}: msgs = {:<6} bandwidth/M = {:.0}",
            m,
            s.io.total_msgs(),
            s.io.total_words() as f64 / m as f64
        );
    }
}

//! Quickstart: multiply matrices with Strassen, verify against the
//! classical kernel, and ask the paper's theory what the multiplication
//! *must* cost in communication.
//!
//! Run with: `cargo run --release --example quickstart`

use fastmm_core::prelude::*;
use fastmm_memsim::explicit::multiply_dfs_explicit;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 128;
    let mut rng = StdRng::seed_from_u64(42);
    let a = Matrix::<f64>::random(n, n, &mut rng);
    let b = Matrix::<f64>::random(n, n, &mut rng);

    // 1. Fast multiplication, checked against the classical kernel.
    let c_fast = multiply_scheme(&strassen(), &a, &b, 32);
    let c_ref = multiply_naive(&a, &b);
    let err = c_fast.max_abs_diff(&c_ref, |x| x);
    println!("Strassen vs classical: n = {n}, max |diff| = {err:.2e}");

    // 2. Arithmetic counts: Strassen's recursion beats 2n³ asymptotically.
    let strassen_ops = scheme_op_count(&strassen(), n, 1);
    let winograd_ops = scheme_op_count(&winograd(), n, 1);
    let classical_flops = 2 * (n as u128).pow(3) - (n as u128).pow(2);
    println!(
        "flops: classical = {classical_flops}, strassen = {} ({} mults, {} adds), winograd = {}",
        strassen_ops.total(),
        strassen_ops.mults,
        strassen_ops.adds,
        winograd_ops.total(),
    );

    // 3. Communication: run on the simulated two-level machine (M words of
    //    fast memory) and compare with Theorem 1.1's lower bound.
    for m in [768usize, 3072] {
        let run = multiply_dfs_explicit(&strassen(), &a, &b, m);
        let lower = seq_bandwidth_lower_bound(STRASSEN, n, m);
        println!(
            "M = {m}: moved {} words ({} messages), Theorem 1.1 bound = {:.0}, ratio = {:.2}",
            run.io.total_words(),
            run.io.total_msgs(),
            lower,
            run.io.total_words() as f64 / lower,
        );
    }

    // 4. The same question for a parallel machine (Corollary 1.2).
    let (p, m) = (49, 3 * n * n / 49);
    println!(
        "p = {p}, M = {m}: every parallel Strassen implementation must move >= {:.0} words/rank",
        par_bandwidth_lower_bound(STRASSEN, n, m, p)
    );
}

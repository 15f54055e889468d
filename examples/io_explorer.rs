//! Explore how the *implementation* (schedule) of the same computation DAG
//! changes its I/O — Sections 1.2 and 3 made tangible.
//!
//! Traces the true CDAG of a Strassen run, executes it under different
//! total orders and eviction policies on the two-level DAG machine, and
//! compares everything against the Equation (6) partition bound.
//!
//! Run with: `cargo run --release --example io_explorer`

use fastmm_cdag::trace::trace_multiply;
use fastmm_core::prelude::*;
use fastmm_pebble::executor::{execute_schedule, Evict};
use fastmm_pebble::partition::partition_lower_bound;
use fastmm_pebble::schedule::{bfs_order, identity_order, random_topological};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 32;
    let t = trace_multiply(&strassen(), n, 1);
    println!(
        "Strassen CDAG for n = {n}: {} vertices ({} inputs, {} mults), {} edges",
        t.graph.n_vertices(),
        t.graph.inputs.len(),
        t.n_mults,
        t.graph.n_edges()
    );

    let dfs = identity_order(&t.graph);
    let bfs = bfs_order(&t.graph);
    let mut rng = StdRng::seed_from_u64(11);
    let rnd = random_topological(&t.graph, &mut rng);

    println!("\nM     Eq.(6) bound   DFS+Belady  DFS+LRU    BFS+Belady  random+Belady");
    for m in [16usize, 32, 64, 128, 256] {
        let (bound, _) = partition_lower_bound(&t.graph, &dfs, m);
        let dfs_bel = execute_schedule(&t.graph, &dfs, m, Evict::Belady).total();
        let dfs_lru = execute_schedule(&t.graph, &dfs, m, Evict::Lru).total();
        let bfs_bel = execute_schedule(&t.graph, &bfs, m, Evict::Belady).total();
        let rnd_bel = execute_schedule(&t.graph, &rnd, m, Evict::Belady).total();
        println!(
            "{:<5} {:<13} {:<11} {:<10} {:<11} {}",
            m, bound, dfs_bel, dfs_lru, bfs_bel, rnd_bel
        );
    }

    println!("\nTakeaways (all consistent with the paper):");
    println!(" - the partition bound never exceeds any implementation's measured I/O;");
    println!(" - the depth-first order is the communication-efficient implementation;");
    println!(" - breadth-first/random orders pay dearly: the bound constrains *every* order.");
}

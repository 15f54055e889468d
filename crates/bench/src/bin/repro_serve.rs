//! E13 — serving throughput: the long-lived batched multiply service
//! (`fastmm-serve`) at steady state, multiplies/sec and p50/p99 batch
//! completion latency per (shape, batch-size, workers) cell, every cell
//! bitwise-verified against `multiply_scheme` before timing, written
//! machine-readably to `target/BENCH_serve.json`.
//!
//! Usage: `repro_serve [n...]` — positive square shape sizes, default
//! 40/48/64, the batched-small-multiply regime the service exists for.
//! `FASTMM_CUTOFF` pins the base-case cutoff; batches {2, 4}, workers
//! {1, 2, 4} and 15 reps per cell are fixed. The committed copy is a
//! default run: refresh it with `cp target/BENCH_serve.json .`.
fn main() {
    let (ns, _) = fastmm_bench::parse_argv("[n...]", None, usize::MAX, |_| true);
    let ns = if ns.is_empty() { vec![40, 48, 64] } else { ns };
    let (report, rows) = fastmm_bench::e13_serve(&ns, &[2, 4], &[1, 2, 4], 15);
    print!("{report}");
    let path = fastmm_bench::write_artifact("BENCH_serve.json", &rows);
    println!("  machine-readable emit: {}", path.display());
}

//! E11 — sequential fast MM vs classical packed GEMM: per n, the packed
//! kernel unrecursed next to Strassen and Winograd at the tuned cutoff,
//! GFLOP/s and modeled words vs the Theorem 1.1 bound, written
//! machine-readably to `target/BENCH_seq.json`.
//!
//! Usage: `repro_perf [n...]` — positive problem sizes, default
//! 256/512/1024. `FASTMM_CUTOFF` pins the base-case cutoff. Refresh the
//! committed copy with `cp target/BENCH_seq.json .`.
fn main() {
    let (ns, _) = fastmm_bench::parse_argv("[n...]", None, usize::MAX, |_| true);
    let ns = if ns.is_empty() {
        vec![256, 512, 1024]
    } else {
        ns
    };
    let (report, rows) = fastmm_bench::e11_repro_perf(&ns);
    print!("{report}");
    let path = fastmm_bench::write_artifact("BENCH_seq.json", &rows);
    println!("  machine-readable emit: {}", path.display());
}

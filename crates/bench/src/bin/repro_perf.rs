//! E11 — the price of each recursion level: per n, the packed kernel
//! unrecursed next to Strassen and Winograd at every depth down to
//! 256-wide leaves, timed in interleaved rounds, with the paired ratio to
//! the unrecursed kernel, the error against its product, and modeled
//! words vs the Theorem 1.1 bound, written machine-readably to
//! `target/BENCH_seq.json`.
//!
//! Usage: `repro_perf [n...]` — problem sizes of at least 2 (the
//! smallest that recurses), default 256/512/1024. `FASTMM_CUTOFF` pins
//! the cutoff whose depth is marked. Refresh the committed copy with
//! `repro_perf 1024 2048 4096 && cp target/BENCH_seq.json .`.
fn main() {
    let (ns, _) = fastmm_bench::parse_argv("[n...]", None, usize::MAX, |n| n >= 2);
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
